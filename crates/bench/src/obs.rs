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

use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, MemDevice};
use prins_core::EngineBuilder;
use prins_net::{SimNet, Transport};
use prins_obs::{register_meter, Registry, Snapshot};
use prins_repl::{verify_consistent, AckPolicy, ReplicaApplier};
use prins_workloads::{capture_trace, Workload};

use crate::traffic::trace_writes;
use crate::TrafficConfig;

/// Virtual nanoseconds the clock advances on every read — stands in for
/// the per-operation CPU cost a wall clock would observe.
const AUTO_TICK_NANOS: u64 = 75;
/// Replica fan-out of the mirror.
const REPLICAS: usize = 2;
/// One-way frame delay per simulated link.
const LINK_DELAY: Duration = Duration::from_micros(200);

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
pub fn obs_experiment(ops: usize) -> Result<Snapshot, Box<dyn std::error::Error>> {
    let block_size = BlockSize::kb8();
    let mut config = TrafficConfig::smoke(block_size);
    config.ops = ops;
    let trace = capture_trace(Workload::TpccOracle, &config.run_config())?;
    if trace.is_empty() {
        return Err("obs run needs a non-empty trace; increase --ops".into());
    }
    let stream = trace_writes(&trace);

    let net = SimNet::new();
    net.clock().set_auto_tick(AUTO_TICK_NANOS);
    let registry = Registry::new();

    let primary = Arc::new(MemDevice::new(block_size, stream.num_blocks));
    for (lba, image) in &stream.initial {
        primary.write_block(*lba, image)?;
    }
    let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
        .manual_stepping(true)
        .clock(net.clock())
        .observe(Arc::clone(&registry))
        .coalesce(true)
        .batch_frames(2)
        .ack_policy(AckPolicy::Window(4));
    let mut replica_devs = Vec::new();
    for idx in 0..REPLICAS {
        let (a, b, _ctl) = net.add_link(&format!("replica{idx}"), LINK_DELAY);
        let device = Arc::new(MemDevice::new(block_size, stream.num_blocks));
        for (lba, image) in &stream.initial {
            device.write_block(*lba, image)?;
        }
        let dev = Arc::clone(&device);
        let tr = b.clone();
        net.set_actor(
            &b,
            Box::new(move || {
                let mut applier = ReplicaApplier::new(&*dev);
                while let Ok(Some(frame)) = tr.try_recv() {
                    let (ack, _) = applier.respond(&frame);
                    let _ = tr.send(&ack);
                }
            }),
        );
        register_meter(&registry, &format!("link{idx}"), Arc::clone(a.meter()));
        builder = builder.replica(Box::new(a));
        replica_devs.push(device);
    }

    let engine = builder.build();
    for (i, (lba, new)) in stream.writes.iter().enumerate() {
        engine.write_block(*lba, new)?;
        // Drain the pipeline periodically so the run exercises the whole
        // stage sequence continuously instead of folding the entire
        // trace into one burst at the final barrier. The window is wide
        // enough that hot TPC-C blocks still coalesce in the queue.
        if i % 64 == 63 {
            engine.step();
        }
    }
    engine.flush()?;
    engine.shutdown()?;
    for dev in &replica_devs {
        if !verify_consistent(&*primary, &**dev)? {
            return Err("replica diverged from primary during obs run".into());
        }
    }
    Ok(registry.snapshot())
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
        let folds = a.event_counts.get("coalesce").copied().unwrap_or(0);
        assert_eq!(admits + folds, a.counters["engine_writes"]);
    }
}
