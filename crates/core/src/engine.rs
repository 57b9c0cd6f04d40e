//! The primary-side PRINS engine.

use std::sync::Arc;

use parking_lot::Mutex;

use prins_block::{BlockDevice, BlockError, Geometry, Lba, Result};
use prins_net::Transport;
use prins_repl::Replicator;

use crate::obs::{self, Probe};
use crate::pipeline::{Pipeline, PipelineConfig};
use crate::{EngineStats, LaneStats};

/// The PRINS-engine: a [`BlockDevice`] wrapper that replicates every
/// write through a staged background pipeline.
///
/// Construct with [`EngineBuilder`](crate::EngineBuilder). The write
/// path performs the paper's forward step — capture `A_old`, write
/// `A_new` locally, and encode `P′ = A_new ⊕ A_old` — and returns.
/// Under a static strategy that does not compress (`Prins`,
/// `Traditional`) a threaded engine encodes on the writer's thread,
/// while both images are hot, whenever nothing is queued ahead of the
/// write and every sender lane has room; otherwise the write is queued
/// for an encode pool, which compressing strategies, the adaptive
/// engine and manual mode always use. Transmission happens off the
/// application's critical path, on one sender lane per replica, each
/// with a thread that ships full frames and held partial ones (the
/// crate-private `pipeline` module documents the stage diagram and its
/// ordering invariants).
///
/// [`flush`](BlockDevice::flush) acts as a replication barrier: the
/// flushing thread encodes, sends and collects the acknowledgements of
/// its own tail, and returns once every admitted write has been
/// acknowledged by every replica, surfacing any replication error that
/// occurred.
pub struct PrinsEngine {
    device: Arc<dyn BlockDevice>,
    /// The stages; their shared context ([`Pipeline::cx`]) also holds
    /// the front-end's probe — clock and counters — and buffer pool.
    pipeline: Pipeline,
    /// Per-LBA stripe locks: the old-image capture, the local write and
    /// the pipeline admission must be atomic per block, or two
    /// concurrent writers to one LBA would admit parities computed
    /// against the same old image — and the replica's XOR chain would
    /// diverge.
    write_stripes: Vec<Mutex<()>>,
    /// The adaptive policy engine, when built with
    /// [`EngineBuilder::adaptive`](crate::EngineBuilder::adaptive).
    pub(crate) adaptive: Option<Arc<prins_policy::AdaptiveReplicator>>,
}

impl PrinsEngine {
    pub(crate) fn start(
        device: Arc<dyn BlockDevice>,
        replicator: Arc<dyn Replicator>,
        transports: Vec<Box<dyn Transport>>,
        config: &PipelineConfig,
        probe: Probe,
    ) -> Self {
        let pool = config.pool(device.geometry().block_size().bytes(), transports.len());
        let pipeline = Pipeline::start(replicator, transports, config, pool, probe);
        obs::collect_gauges(pipeline.cx());
        Self {
            device,
            pipeline,
            write_stripes: (0..64).map(|_| Mutex::new(())).collect(),
            adaptive: None,
        }
    }

    /// The adaptive policy engine (decision and counterfactual
    /// counters), when built with
    /// [`EngineBuilder::adaptive`](crate::EngineBuilder::adaptive).
    pub fn adaptive(&self) -> Option<&Arc<prins_policy::AdaptiveReplicator>> {
        self.adaptive.as_ref()
    }

    /// The per-write trace sink, if tracing was enabled via
    /// [`flight_recorder`](crate::EngineBuilder::flight_recorder).
    /// Share it with cluster layers (`attach_tracer`) for end-to-end
    /// traces across the whole stack.
    pub fn trace_sink(&self) -> Option<&Arc<prins_obs::TraceSink>> {
        self.pipeline.cx().probe.trace_sink()
    }

    /// Drives one pipeline round when the engine was built with
    /// [`manual_stepping`](crate::EngineBuilder::manual_stepping):
    /// encodes every admitted write and lets each sender lane transmit
    /// and collect acknowledgements, all on the calling thread.
    ///
    /// Returns whether any work was performed; always `false` on a
    /// threaded engine.
    pub fn step(&self) -> bool {
        self.pipeline.step()
    }

    /// The engine's counters, read from the instruments its probe
    /// bumps — in an [`observe`](crate::EngineBuilder::observe)d
    /// engine, the registry's `engine_*` and `lane{i}_*` counters.
    ///
    /// `writes_replicated` is the number of writes acknowledged by
    /// *every* replica; `replicated_payload_bytes` counts the sealed
    /// frame of each successful transmission once per lane (a write
    /// sent to three replicas contributes three frames).
    pub fn stats(&self) -> EngineStats {
        self.pipeline.cx().probe.stats()
    }

    /// Per-replica sender-lane counters, in replica order — a view like
    /// [`stats`](Self::stats).
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.pipeline.cx().probe.lane_stats()
    }

    /// The wrapped local device.
    pub fn device(&self) -> &Arc<dyn BlockDevice> {
        &self.device
    }

    /// Waits until every admitted write is replicated and acknowledged.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::DeviceFailed`] if any replication error
    /// occurred since the last check (the error is consumed).
    pub fn replication_barrier(&self) -> Result<()> {
        self.pipeline.barrier();
        if let Some(err) = self.pipeline.cx().last_error.lock().take() {
            return Err(BlockError::DeviceFailed {
                device: format!("replication failed: {err}"),
            });
        }
        Ok(())
    }

    /// Stops the engine: drains the pipeline, joins all worker threads
    /// and reports any outstanding replication error.
    ///
    /// # Errors
    ///
    /// Returns the first replication error recorded, if any. The engine
    /// is unusable for further writes either way.
    pub fn shutdown(self) -> Result<()> {
        let result = self.replication_barrier();
        self.pipeline.shutdown();
        result
    }
}

impl BlockDevice for PrinsEngine {
    fn geometry(&self) -> Geometry {
        self.device.geometry()
    }

    fn read_block(&self, lba: Lba, buf: &mut [u8]) -> Result<()> {
        self.device.read_block(lba, buf)?;
        self.pipeline.cx().probe.read();
        Ok(())
    }

    fn write_block(&self, lba: Lba, buf: &[u8]) -> Result<()> {
        let cx = self.pipeline.cx();
        // Serialize capture+write+admit per LBA stripe (see field doc).
        let _stripe = self.write_stripes[(lba.index() % 64) as usize].lock();
        // Forward step, part 1: capture the old image into a pooled
        // buffer. This is the read a RAID-4/5 small write performs
        // anyway, so the local write below hands it down instead of
        // having the device read the block a second time.
        let t0 = cx.probe.now();
        let bs = self.geometry().block_size().bytes();
        let mut old = cx.pool.get(bs);
        old.resize_zeroed(bs);
        self.device.read_block(lba, old.as_mut_slice())?;
        let capture_nanos = cx.probe.now().saturating_sub(t0);

        // The local write itself; the stripe lock keeps `old` current.
        let t1 = cx.probe.now();
        self.device.write_block_over(lba, &old, buf)?;
        let write_nanos = cx.probe.now().saturating_sub(t1);

        // Forward step, part 2: hand both images to the pipeline, which
        // encodes them here while they are hot, or copies `buf` into a
        // pooled buffer for the encode pool (see `Pipeline::admit`).
        cx.probe.local_io(capture_nanos, write_nanos);
        self.pipeline
            .admit(lba, old, buf)
            .map_err(|_| BlockError::DeviceFailed {
                device: "prins replication pipeline is gone".into(),
            })
    }

    fn flush(&self) -> Result<()> {
        self.replication_barrier()?;
        self.device.flush()
    }
}

impl Drop for PrinsEngine {
    fn drop(&mut self) {
        // Best-effort teardown; errors were reportable via shutdown().
        // The pipeline drains queued work before its threads exit.
        self.pipeline.shutdown();
        // The snapshot collector holds this engine's context weakly and
        // goes quiet after drop: publish its gauges one last time.
        obs::publish_gauges(self.pipeline.cx());
    }
}

impl std::fmt::Debug for PrinsEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PrinsEngine")
            .field("geometry", &self.device.geometry())
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}
