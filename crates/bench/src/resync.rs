//! Resync catch-up traffic: the parity-log replay against the image
//! references it replaces.
//!
//! The paper measures foreground replication traffic; this experiment
//! measures the *recovery* side. A replica drops out mid-trace, the
//! primary keeps writing in degraded mode, the replica rejoins, and we
//! count the bytes [`ClusterGroup::rejoin`]'s plan puts on the wire to
//! catch it back up. The plan replays the same sparse parities that made
//! foreground replication cheap, so the catch-up cost tracks the bytes
//! the outage actually changed — not the volume size (a full image) and
//! not even the dirty block count (one image per dirty block).

use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup, ReplicaState};
use prins_net::SimNet;
use prins_obs::Registry;
use prins_repl::{serve_sim, verify_consistent, ReplicaApplier};
use prins_workloads::{capture_trace, RunConfig, ScalePreset, Workload, WriteTrace};

use crate::figures::{kb, FigureTable};
use crate::traffic::{trace_writes, TraceStream};

/// Per-frame delay of the replica's simulated link. The experiment
/// counts bytes, not time, so any virtual delay measures the same.
const LINK_DELAY: Duration = Duration::from_micros(200);

/// Result of one outage + resync run.
#[derive(Clone, Debug)]
pub struct ResyncMeasurement {
    /// Distinct blocks dirtied by the outage (at rejoin time).
    pub dirty_blocks: usize,
    /// Blocks in the replayed volume (the highest LBA the trace
    /// touches, plus one).
    pub volume_blocks: u64,
    /// Payload bytes sent as resync traffic.
    pub resync_bytes: u64,
    /// Whether the replica image matched the primary after the run.
    pub consistent: bool,
}

/// Replays `trace` through a one-replica [`ClusterGroup`], severing the
/// replica's link for `outage_writes` writes starting at `outage_start`,
/// then rejoining it. Resync runs interleaved with the
/// remaining foreground writes, a few frames per write.
///
/// Both images are pre-seeded with the trace's first-touch block
/// contents so the parity chain applies to the same base the capture
/// ran against.
///
/// # Errors
///
/// Propagates cluster and replication errors, and fails if the replica
/// refused a frame.
///
/// # Panics
///
/// Panics if the trace is empty.
pub fn resync_experiment(
    trace: &WriteTrace,
    outage_start: usize,
    outage_writes: usize,
) -> Result<ResyncMeasurement, Box<dyn std::error::Error>> {
    assert!(!trace.is_empty(), "need a non-empty trace");
    let TraceStream {
        writes,
        initial,
        num_blocks,
    } = trace_writes(trace);
    let primary = MemDevice::new(trace.block_size(), num_blocks);
    let replica = Arc::new(MemDevice::new(trace.block_size(), num_blocks));
    for (lba, image) in &initial {
        primary.write_block(*lba, image)?;
        replica.write_block(*lba, image)?;
    }

    let net = SimNet::new();
    let (primary_side, replica_side, link) = net.add_link("replica", LINK_DELAY);
    let applier = ReplicaApplier::new(Arc::clone(&replica));
    serve_sim(&net, &replica_side, applier);

    let config = ClusterConfig {
        offline_after: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = ClusterGroup::new(primary, config, vec![Box::new(primary_side)]);
    let registry = Registry::new();
    cluster.attach_observer(Arc::clone(&registry), net.clock());

    let outage_end = outage_start.saturating_add(outage_writes).min(writes.len());
    let mut dirty_blocks = 0;
    let rejoin = |cluster: &mut ClusterGroup<MemDevice>,
                  dirty: &mut usize|
     -> Result<(), Box<dyn std::error::Error>> {
        link.restore();
        *dirty = cluster.status(0).dirty_blocks;
        cluster.rejoin(0)?;
        Ok(())
    };
    for (i, (lba, new)) in writes.iter().enumerate() {
        if i == outage_start && outage_writes > 0 {
            link.sever();
        }
        if i == outage_end && i > outage_start && outage_writes > 0 {
            rejoin(&mut cluster, &mut dirty_blocks)?;
        }
        if cluster.state(0) == ReplicaState::Resyncing {
            cluster.resync_step(0, 4)?;
        }
        cluster.write(*lba, new)?;
    }
    if matches!(
        cluster.state(0),
        ReplicaState::Offline | ReplicaState::Lagging
    ) {
        rejoin(&mut cluster, &mut dirty_blocks)?;
    }
    if cluster.state(0) == ReplicaState::Resyncing {
        cluster.resync_to_completion(0, 32)?;
    }

    let refused =
        registry.events().count("nak") + registry.snapshot().counters["checksum_failures"];
    if refused > 0 {
        return Err(format!("the replica refused {refused} frame(s)").into());
    }
    let status = cluster.status(0);
    let consistent = verify_consistent(cluster.device(), &*replica)?;

    Ok(ResyncMeasurement {
        dirty_blocks,
        volume_blocks: num_blocks,
        resync_bytes: status.resync_bytes,
        consistent,
    })
}

/// The resync series: catch-up bytes across outage lengths on the TPC-C
/// trace.
///
/// Each row severs the replica for a growing slice of the trace (5% to
/// 50% of its writes), rejoins it, and tabulates the measured catch-up
/// traffic beside two image references: what re-sending the whole
/// volume and what re-sending every dirty block would cost in payload
/// bytes (blocks × block size).
///
/// # Errors
///
/// Propagates workload and cluster errors.
pub fn resync_figure(
    ops: usize,
    scale: ScalePreset,
) -> Result<FigureTable, Box<dyn std::error::Error>> {
    let config = RunConfig {
        scale,
        ..RunConfig::bench(BlockSize::kb8(), ops)
    };
    let trace = capture_trace(Workload::TpccOracle, &config)?;
    if trace.is_empty() {
        return Err("resync series needs a non-empty trace; increase --ops".into());
    }
    let block = trace.block_size().bytes() as u64;

    let mut rows = Vec::new();
    for pct in [5usize, 10, 25, 50] {
        let outage = (trace.len() * pct / 100).max(1);
        let start = (trace.len() - outage) / 2;
        let m = resync_experiment(&trace, start, outage)?;
        assert!(m.consistent, "resync left the replica stale");
        let full = m.volume_blocks * block;
        rows.push(vec![
            format!("{pct}%"),
            outage.to_string(),
            m.dirty_blocks.to_string(),
            kb(full),
            kb(m.dirty_blocks as u64 * block),
            kb(m.resync_bytes),
            format!("{:.1}x", full as f64 / m.resync_bytes.max(1) as f64),
        ]);
    }
    Ok(FigureTable {
        title: format!(
            "Resync catch-up traffic, TPC-C / Oracle profile ({} trace writes, 8 KB blocks; \
             full and bitmap are image references, parity is measured)",
            trace.len()
        ),
        headers: [
            "outage",
            "missed",
            "dirty",
            "full KB",
            "bitmap KB",
            "parity KB",
            "full/parity",
        ]
        .map(String::from)
        .to_vec(),
        rows,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_trace() -> WriteTrace {
        capture_trace(Workload::TpccOracle, &RunConfig::smoke(BlockSize::kb8()))
            .expect("trace captures")
    }

    #[test]
    fn no_outage_means_no_resync_traffic() {
        let trace = smoke_trace();
        let m = resync_experiment(&trace, 0, 0).unwrap();
        assert!(m.consistent);
        assert_eq!(m.resync_bytes, 0);
        assert_eq!(m.dirty_blocks, 0);
    }

    #[test]
    fn outage_running_to_trace_end_still_recovers() {
        let trace = smoke_trace();
        let start = trace.len() / 2;
        let m = resync_experiment(&trace, start, trace.len()).unwrap();
        assert!(m.consistent);
        assert!(m.resync_bytes > 0);
    }

    #[test]
    fn resync_figure_smoke_has_all_columns() {
        let table = resync_figure(40, ScalePreset::Smoke).unwrap();
        assert_eq!(table.headers.len(), 7);
        assert_eq!(table.rows.len(), 4);
        for row in &table.rows {
            assert_eq!(row.len(), table.headers.len());
        }
    }
}
