//! Tail-latency attribution run: the deterministic TPC-C mirror with
//! one replica link 10x slower than the rest, traced end to end by the
//! engine's trace sink.
//!
//! The point of the run is the question an operator actually asks when
//! p99 blows up: *which hop is it?* Every write mints a trace at
//! capture; each pipeline hop appends a stage event; above-p99 traces
//! charge each closed gap to its (stage, lane). With lane 2 at 10x the
//! delay of lanes 0 and 1, the attribution must finger lane 2 — the
//! release-gated test below holds it to at least 80% of all above-p99
//! virtual time, the bound `figures trace` demonstrates.

use std::fmt;
use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, MemDevice};
use prins_core::EngineBuilder;
use prins_net::{SimNet, Transport};
use prins_obs::{lane_bucket, TraceConfig, TraceSink, LANE_BUCKETS};
use prins_repl::{verify_consistent, AckPolicy, ReplicaApplier};
use prins_workloads::{capture_trace, Workload};

use crate::traffic::trace_writes;
use crate::TrafficConfig;

/// Virtual nanoseconds the clock advances on every read — stands in for
/// the per-operation CPU cost a wall clock would observe.
const AUTO_TICK_NANOS: u64 = 75;
/// Replica fan-out of the mirror; the last lane is the slow one.
const REPLICAS: usize = 3;
/// One-way frame delay of the healthy links.
const FAST_DELAY: Duration = Duration::from_micros(200);
/// One-way frame delay of the degraded link — 10x the healthy delay.
const SLOW_DELAY: Duration = Duration::from_millis(2);

/// What the traced run leaves behind: the engine's trace sink and
/// which lane was degraded, plus the attribution arithmetic the
/// figure and the test both use.
pub struct TailTraceReport {
    /// The engine's trace sink after the run completed.
    pub sink: Arc<TraceSink>,
    /// Index of the 10x-slow lane.
    pub slow_lane: usize,
}

impl TailTraceReport {
    /// Total above-p99 virtual nanoseconds attributed across every
    /// (stage, lane) cell.
    #[must_use]
    pub fn tail_total_nanos(&self) -> u64 {
        (0..LANE_BUCKETS)
            .map(|b| self.sink.tail_bucket_nanos(b))
            .sum()
    }

    /// Share (in permille) of all above-p99 time charged to the slow
    /// lane, whatever the stage.
    #[must_use]
    pub fn slow_lane_share_permille(&self) -> u64 {
        let total = self.tail_total_nanos();
        if total == 0 {
            return 0;
        }
        self.sink
            .tail_bucket_nanos(lane_bucket(self.slow_lane as u32))
            .saturating_mul(1000)
            / total
    }
}

impl fmt::Display for TailTraceReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.sink.to_table())?;
        writeln!(
            f,
            "tail attribution: lane {} (10x slow) holds {} permille of \
             above-p99 time",
            self.slow_lane,
            self.slow_lane_share_permille()
        )
    }
}

/// Replays a captured TPC-C trace through a traced engine mirroring to
/// three simulated replicas, the last behind a 10x-slow link, and
/// returns the trace sink's verdict. Deterministic: same `ops`,
/// byte-identical trace summary.
///
/// # Errors
///
/// Propagates workload and device failures, and fails if a replica is
/// not bit-identical to the primary after the final barrier.
pub fn trace_experiment(ops: usize) -> Result<TailTraceReport, Box<dyn std::error::Error>> {
    let block_size = BlockSize::kb8();
    let mut config = TrafficConfig::smoke(block_size);
    config.ops = ops;
    let trace = capture_trace(Workload::TpccOracle, &config.run_config())?;
    if trace.is_empty() {
        return Err("trace run needs a non-empty trace; increase --ops".into());
    }
    let stream = trace_writes(&trace);

    let net = SimNet::new();
    net.clock().set_auto_tick(AUTO_TICK_NANOS);

    let primary = Arc::new(MemDevice::new(block_size, stream.num_blocks));
    for (lba, image) in &stream.initial {
        primary.write_block(*lba, image)?;
    }
    let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
        .manual_stepping(true)
        .clock(net.clock())
        .flight_recorder(TraceConfig::default())
        .coalesce(true)
        .batch_frames(2)
        // Per-write acks: each lane's wait is closed by its own ack
        // event, so above-p99 gaps land on the lane that caused them.
        // A pipelined window would collect the fast lanes' acks after
        // the slow lane already advanced the virtual clock, smearing
        // the slow link's cost across healthy lanes.
        .ack_policy(AckPolicy::PerWrite);
    let mut replica_devs = Vec::new();
    for idx in 0..REPLICAS {
        let delay = if idx == REPLICAS - 1 {
            SLOW_DELAY
        } else {
            FAST_DELAY
        };
        let (a, b, _ctl) = net.add_link(&format!("replica{idx}"), delay);
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
        builder = builder.replica(Box::new(a));
        replica_devs.push(device);
    }

    let engine = builder.build();
    let sink = Arc::clone(engine.trace_sink().expect("tracing enabled above"));
    for (i, (lba, new)) in stream.writes.iter().enumerate() {
        engine.write_block(*lba, new)?;
        // Drain often: a sparse step cadence would charge queue wait to
        // the healthy lanes too and blur the slow link's signature.
        if i % 16 == 15 {
            engine.step();
        }
    }
    engine.flush()?;
    engine.shutdown()?;
    for dev in &replica_devs {
        if !verify_consistent(&*primary, &**dev)? {
            return Err("replica diverged from primary during trace run".into());
        }
    }
    Ok(TailTraceReport {
        sink,
        slow_lane: REPLICAS - 1,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_run_is_deterministic() {
        let a = trace_experiment(30).expect("trace run");
        let b = trace_experiment(30).expect("trace run");
        assert_eq!(a.sink.summary_json(), b.sink.summary_json());
        assert!(a.sink.completed() > 0, "run completed no traces");
        assert_eq!(
            a.sink.started(),
            a.sink.completed(),
            "every trace must finalize by the final barrier"
        );
    }

    // Debug-profile virtual time is identical to release (the clock is
    // simulated), but the run is big enough to keep out of `cargo test`
    // dev cycles.
    #[test]
    #[cfg_attr(debug_assertions, ignore = "release-gated: run with --release")]
    fn slow_lane_dominates_above_p99_attribution() {
        let report = trace_experiment(120).expect("trace run");
        assert!(
            report.tail_total_nanos() > 0,
            "no above-p99 time was attributed"
        );
        let share = report.slow_lane_share_permille();
        assert!(
            share >= 800,
            "10x-slow lane {} holds only {share} permille of above-p99 time",
            report.slow_lane
        );
    }
}
