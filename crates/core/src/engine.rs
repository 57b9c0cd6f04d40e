//! The primary-side PRINS engine.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use parking_lot::Mutex;

use prins_block::{BlockDevice, BlockError, Geometry, Lba, Result};
use prins_buf::BufPool;
use prins_net::Transport;
use prins_repl::Replicator;

use crate::obs::Probe;
use crate::pipeline::{Inner, Pipeline, PipelineConfig, PipelineTuning};
use crate::{EngineStats, LaneStats};

/// The PRINS-engine: a [`BlockDevice`] wrapper that replicates every
/// write through a staged background pipeline.
///
/// Construct with [`EngineBuilder`](crate::EngineBuilder). The write
/// path performs the paper's forward step — capture `A_old`, write
/// `A_new` locally, admit `(lba, A_old, A_new)` to the replication
/// pipeline — and returns; parity encoding and transmission happen off
/// the application's critical path, spread over an encode pool and one
/// sender thread per replica (see [`crate::pipeline`] for the stage
/// diagram and its ordering/coalescing invariants).
///
/// [`flush`](BlockDevice::flush) acts as a replication barrier: it
/// returns once every admitted write has been acknowledged by every
/// replica, surfacing any replication error that occurred.
pub struct PrinsEngine {
    device: Arc<dyn BlockDevice>,
    /// The stages; their shared context ([`Pipeline::cx`]) also holds
    /// the front-end's counters, clock and buffer pool.
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
        let pool =
            BufPool::for_block_size(device.geometry().block_size().bytes(), config.batch_frames);
        let pipeline = Pipeline::start(replicator, transports, config, pool, probe);
        if let Some(registry) = pipeline.cx().probe.registry() {
            // The collector closes over a Weak: the registry outliving
            // the engine must not keep the pipeline context (and with
            // it this very registry, via the probe) alive in a cycle.
            // Gauges keep their last published value, and the engine
            // publishes once more on drop, so post-shutdown snapshots
            // still show the final counters.
            let weak = Arc::downgrade(pipeline.cx());
            registry.add_collector(Box::new(move |reg| {
                if let Some(cx) = weak.upgrade() {
                    publish_engine_gauges(reg, &cx);
                }
            }));
        }
        Self {
            device,
            pipeline,
            write_stripes: (0..64).map(|_| Mutex::new(())).collect(),
            adaptive: None,
        }
    }

    /// The live pipeline knobs (batching depth, coalescing). Safe to
    /// retune from any thread while the engine runs; the adaptive
    /// policy's phase hook points here.
    pub fn tuning(&self) -> &Arc<PipelineTuning> {
        &self.pipeline.cx().tuning
    }

    /// The adaptive policy engine (decision counters, counterfactuals,
    /// current workload phase), when built with
    /// [`EngineBuilder::adaptive`](crate::EngineBuilder::adaptive).
    pub fn adaptive(&self) -> Option<&Arc<prins_policy::AdaptiveReplicator>> {
        self.adaptive.as_ref()
    }

    /// The metrics registry the engine records into, if one was
    /// attached via [`observe`](crate::EngineBuilder::observe).
    pub fn registry(&self) -> Option<&Arc<prins_obs::Registry>> {
        self.pipeline.cx().probe.registry()
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

    /// Snapshot of the engine's counters.
    ///
    /// `writes_replicated` is the number of writes acknowledged by
    /// *every* replica; `replicated_payload_bytes` counts the sealed
    /// frame of each successful transmission once per lane (a write
    /// sent to three replicas contributes three frames).
    pub fn stats(&self) -> EngineStats {
        let cx = self.pipeline.cx();
        let lanes = &cx.lanes;
        let writes_replicated = if lanes.is_empty() {
            cx.stats.dispatched_writes.load(Ordering::Relaxed)
        } else {
            lanes
                .iter()
                .map(|l| l.acked_writes.load(Ordering::Relaxed))
                .min()
                .unwrap_or(0)
        };
        EngineStats {
            writes: cx.stats.writes.load(Ordering::Relaxed),
            reads: cx.stats.reads.load(Ordering::Relaxed),
            writes_replicated,
            replicated_payload_bytes: lanes
                .iter()
                .map(|l| l.payload_bytes.load(Ordering::Relaxed))
                .sum(),
            local_write_nanos: cx.stats.local_write_nanos.load(Ordering::Relaxed),
            overhead_nanos: cx.stats.overhead_nanos.load(Ordering::Relaxed),
            send_nanos: lanes
                .iter()
                .map(|l| l.send_nanos.load(Ordering::Relaxed) + l.ack_nanos.load(Ordering::Relaxed))
                .sum(),
            replication_errors: cx.stats.replication_errors.load(Ordering::Relaxed),
            coalesced_writes: cx.stats.coalesced_writes.load(Ordering::Relaxed),
            queue_depth_hwm: cx.stats.queue_depth_hwm.load(Ordering::Relaxed),
        }
    }

    /// Per-replica sender-lane counters, in replica order.
    pub fn lane_stats(&self) -> Vec<LaneStats> {
        self.pipeline
            .cx()
            .lanes
            .iter()
            .map(|l| LaneStats {
                sends: l.sends.load(Ordering::Relaxed),
                acked_writes: l.acked_writes.load(Ordering::Relaxed),
                payload_bytes: l.payload_bytes.load(Ordering::Relaxed),
                send_nanos: l.send_nanos.load(Ordering::Relaxed),
                ack_nanos: l.ack_nanos.load(Ordering::Relaxed),
                errors: l.errors.load(Ordering::Relaxed),
            })
            .collect()
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
        if let Some(err) = self.pipeline.cx().stats.last_error.lock().take() {
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
        self.pipeline
            .cx()
            .stats
            .reads
            .fetch_add(1, Ordering::Relaxed);
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

        cx.stats
            .overhead_nanos
            .fetch_add(capture_nanos, Ordering::Relaxed);
        cx.stats
            .local_write_nanos
            .fetch_add(write_nanos, Ordering::Relaxed);
        cx.stats.writes.fetch_add(1, Ordering::Relaxed);
        cx.probe.local_io(capture_nanos, write_nanos);

        // Forward step, part 2: the new image's single hot-path copy,
        // into a pooled buffer the encoder reads from in place.
        let mut new = cx.pool.get(buf.len());
        new.copy_from(buf);
        cx.stats
            .hot_bytes_copied
            .fetch_add(buf.len() as u64, Ordering::Relaxed);
        self.pipeline
            .admit(lba, old, new)
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
        if let Some(registry) = self.pipeline.cx().probe.registry() {
            // Final gauge publish: the snapshot collector only holds a
            // Weak to this engine's state and goes quiet after drop.
            publish_engine_gauges(registry, self.pipeline.cx());
        }
    }
}

/// Copies the engine's counters into registry gauges. Run by the
/// snapshot collector while the engine lives and once at drop.
fn publish_engine_gauges(reg: &prins_obs::Registry, cx: &Inner) {
    let pool_stats = cx.pool.stats();
    let writes = cx.stats.writes.load(Ordering::Relaxed);
    let hot_bytes = cx.stats.hot_bytes_copied.load(Ordering::Relaxed);
    for (name, value) in [
        ("engine_writes", writes),
        ("engine_reads", cx.stats.reads.load(Ordering::Relaxed)),
        (
            "engine_coalesced_writes",
            cx.stats.coalesced_writes.load(Ordering::Relaxed),
        ),
        (
            "engine_dispatched_writes",
            cx.stats.dispatched_writes.load(Ordering::Relaxed),
        ),
        (
            "engine_replication_errors",
            cx.stats.replication_errors.load(Ordering::Relaxed),
        ),
        (
            "engine_queue_depth_hwm",
            cx.stats.queue_depth_hwm.load(Ordering::Relaxed),
        ),
        ("engine_hot_bytes_copied", hot_bytes),
        (
            "engine_bytes_copied_per_write",
            hot_bytes.checked_div(writes).unwrap_or(0),
        ),
        ("pool_hits", pool_stats.hits),
        ("pool_misses", pool_stats.misses),
        ("pool_miss_ppm", pool_stats.miss_ppm()),
        ("pool_in_use", pool_stats.in_use),
        ("pool_in_use_hwm", pool_stats.in_use_hwm),
    ] {
        reg.gauge(name).set(value);
    }
    for (idx, lane) in cx.lanes.iter().enumerate() {
        for (suffix, value) in [
            ("sends", lane.sends.load(Ordering::Relaxed)),
            ("acked_writes", lane.acked_writes.load(Ordering::Relaxed)),
            ("payload_bytes", lane.payload_bytes.load(Ordering::Relaxed)),
            ("errors", lane.errors.load(Ordering::Relaxed)),
        ] {
            reg.gauge(&format!("lane{idx}_{suffix}")).set(value);
        }
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
