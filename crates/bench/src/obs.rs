//! The observability run: a TPC-C mirror replayed through the real
//! engine over simulated links, entirely in virtual time, emitting the
//! full unified metrics snapshot.
//!
//! Everything is deterministic: the trace is captured from a seeded
//! workload, the links are a [`SimNet`] with fixed delays, and the
//! virtual clock auto-ticks a fixed amount on every read so compute
//! stages (old-image capture, parity encode) get non-zero, repeatable
//! durations. Two runs at the same `ops` produce byte-identical JSON —
//! which is what lets CI diff the event-count summary against a
//! checked-in golden file (`obs-dump --summary`).

use std::error::Error;
use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, MemDevice};
use prins_core::{EngineBuilder, PrinsEngine};
use prins_net::{SimNet, TrafficMeter, Transport};
use prins_obs::{register_meter, Registry, Snapshot};
use prins_repl::{serve_sim, verify_consistent, AckPolicy, ReplicaApplier};
use prins_workloads::{capture_trace, RunConfig, Workload};

use crate::traffic::trace_writes;

/// Virtual nanoseconds the clock advances on every read — stands in for
/// the per-operation CPU cost a wall clock would observe.
const AUTO_TICK_NANOS: u64 = 75;
/// One-way frame delay of each of the mirror's two simulated links.
const LINK_DELAYS: [Duration; 2] = [Duration::from_micros(200); 2];

/// Replays a captured TPC-C trace (about `ops` transactions' worth of
/// block writes) through an observed engine mirroring to two simulated
/// replicas, and returns the registry snapshot: per-stage latency
/// histograms (capture, encode, reorder hold, lane queue, send, ack
/// RTT), engine and lane counters, pool gauges, and the typed event
/// trace.
///
/// # Errors
///
/// Propagates workload and device failures, and fails if a replica is
/// not bit-identical to the primary after the final barrier.
pub fn obs_experiment(ops: usize) -> Result<Snapshot, Box<dyn Error>> {
    let registry = Registry::new();
    let observed = |builder: EngineBuilder| {
        builder
            .observe(Arc::clone(&registry))
            .ack_policy(AckPolicy::Window(4))
    };
    // Drain the pipeline periodically so the run exercises the whole
    // stage sequence continuously instead of piling the entire trace
    // into one burst at the final barrier.
    sim_mirror(ops, &LINK_DELAYS, 64, observed, |_, meters| {
        for (idx, meter) in meters.iter().enumerate() {
            register_meter(&registry, &format!("link{idx}"), Arc::clone(meter));
        }
    })?;
    Ok(registry.snapshot())
}

/// The deterministic TPC-C mirror the observability runs replay, in
/// virtual time: a captured trace (about `ops` transactions' worth of
/// block writes) seeded onto the primary and onto one replica per entry
/// of `delays`, each behind a [`SimNet`] link of that one-way delay
/// and served by [`serve_sim`]. A stepped engine with two payloads
/// a frame, finished by `configure`, writes the trace, stepping every
/// `step_every` writes, then flushes and shuts down.
/// `on_built` sees the engine and the links' meters before the first
/// write; what it returns is the run's result.
///
/// # Errors
///
/// Propagates workload and device failures, and fails if a replica is
/// not bit-identical to the primary after the final barrier.
pub(crate) fn sim_mirror<T>(
    ops: usize,
    delays: &[Duration],
    step_every: usize,
    configure: impl FnOnce(EngineBuilder) -> EngineBuilder,
    on_built: impl FnOnce(&PrinsEngine, &[Arc<TrafficMeter>]) -> T,
) -> Result<T, Box<dyn Error>> {
    let block_size = BlockSize::kb8();
    let config = RunConfig {
        ops,
        ..RunConfig::smoke(block_size)
    };
    let trace = capture_trace(Workload::TpccOracle, &config)?;
    if trace.is_empty() {
        return Err("the mirror run needs a non-empty trace; increase --ops".into());
    }
    let stream = trace_writes(&trace);

    let net = SimNet::new();
    net.clock().set_auto_tick(AUTO_TICK_NANOS);
    let seeded = || -> Result<Arc<MemDevice>, Box<dyn Error>> {
        let device = Arc::new(MemDevice::new(block_size, stream.num_blocks));
        for (lba, image) in &stream.initial {
            device.write_block(*lba, image)?;
        }
        Ok(device)
    };

    let primary = seeded()?;
    let mut builder = configure(
        EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .manual_stepping(true)
            .clock(net.clock())
            .batch_frames(2),
    );
    let (mut replica_devs, mut meters) = (Vec::new(), Vec::new());
    for (idx, delay) in delays.iter().enumerate() {
        let (a, b, _ctl) = net.add_link(&format!("replica{idx}"), *delay);
        let device = seeded()?;
        serve_sim(&net, &b, ReplicaApplier::new(Arc::clone(&device)));
        meters.push(Arc::clone(a.meter()));
        builder = builder.replica(Box::new(a));
        replica_devs.push(device);
    }

    let engine = builder.build();
    let result = on_built(&engine, &meters);
    for (i, (lba, new)) in stream.writes.iter().enumerate() {
        engine.write_block(*lba, new)?;
        if i % step_every == step_every - 1 {
            engine.step();
        }
    }
    engine.flush()?;
    engine.shutdown()?;
    for dev in &replica_devs {
        if !verify_consistent(&*primary, &**dev)? {
            return Err("replica diverged from primary during the mirror run".into());
        }
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_run_is_deterministic_and_populates_stage_histograms() {
        let a = obs_experiment(30).expect("obs run");
        let b = obs_experiment(30).expect("obs run");
        assert_eq!(a.to_json(), b.to_json(), "same ops => identical snapshot");
        assert_eq!(a.event_summary_json(), b.event_summary_json());

        for stage in [
            "stage_encode_nanos",
            "stage_lane_queue_nanos",
            "stage_ack_rtt_nanos",
        ] {
            let h = &a.histograms[stage];
            assert!(h.count > 0, "{stage} recorded no samples");
            assert!(h.p50 > 0, "{stage} p50 must be non-zero under auto-tick");
            assert!(h.p99 >= h.p50);
        }
        assert!(a.counters["engine_writes"] > 0);
        let admits = a.event_counts.get("admit").copied().unwrap_or(0);
        assert_eq!(admits, a.counters["engine_writes"]);
    }
}
