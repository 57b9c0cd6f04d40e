//! Erasure-coded group economics: storage overhead versus 3-way
//! mirroring and single-strip repair bandwidth, measured on a real
//! [`EcGroup`] replaying a captured workload write stream.
//!
//! Two bounds anchor the experiment (and its tests):
//!
//! * **Storage** — `k = 4, m = 2` stores `(k + m)/k = 1.5×` the
//!   logical bytes while tolerating two node losses; a 3-way mirror
//!   with the same tolerance stores `3×`.
//! * **Repair** — rebuilding one lost strip moves at most `1.25×` the
//!   `k` survivors' dense image bytes over the wire (`k` strip reads
//!   plus one zero-run-encoded shipment per stripe), never `n` full
//!   images.

use std::fmt;
use std::time::Duration;

use prins_block::{BlockSize, Lba, MemDevice};
use prins_cluster::{EcConfig, EcGroup, EcPlacement};
use prins_net::{SimNet, Transport};
use prins_repl::{serve_sim, ReplicaApplier};
use prins_workloads::{capture_trace, RunConfig, ScalePreset, Workload};

use crate::traffic::trace_writes;

/// Per-frame delay of each node's simulated link. The experiment
/// counts bytes, not time, so any virtual delay measures the same.
const LINK_DELAY: Duration = Duration::from_micros(200);

/// Result of the erasure-coding economics experiment.
#[derive(Clone, Copy, Debug)]
pub struct EcReport {
    /// Logical block writes replayed through the group.
    pub(crate) writes: u64,
    /// User-visible capacity of the group.
    pub(crate) logical_bytes: u64,
    /// Bytes stored across all strips.
    pub(crate) physical_bytes: u64,
    /// Foreground wire bytes (data + coefficient-scaled parity deltas).
    pub(crate) write_wire_bytes: u64,
    /// Wire bytes the single-node rebuild moved.
    pub(crate) rebuild_wire_bytes: u64,
    /// Dense image bytes of the `k` survivor strips read per stripe —
    /// the repair-bandwidth denominator.
    pub(crate) survivor_image_bytes: u64,
}

impl EcReport {
    /// `physical / logical` — 1.5 at `k = 4, m = 2`.
    pub(crate) fn storage_overhead(&self) -> f64 {
        self.physical_bytes as f64 / self.logical_bytes as f64
    }

    /// What a 3-way mirror of the same volume stores, relative to
    /// logical bytes.
    pub(crate) fn mirror_overhead(&self) -> f64 {
        3.0
    }

    /// `rebuild wire bytes / survivor image bytes` — bounded by 1.25.
    pub(crate) fn repair_ratio(&self) -> f64 {
        self.rebuild_wire_bytes as f64 / self.survivor_image_bytes.max(1) as f64
    }
}

impl fmt::Display for EcReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ec k=4,m=2: {} writes; storage {:.2}x logical (3-way mirror: {:.1}x, \
             same 2-loss tolerance); foreground wire {} B; rebuild moved {} B \
             against {} B of survivor images = {:.3}x (bound 1.25x)",
            self.writes,
            self.storage_overhead(),
            self.mirror_overhead(),
            self.write_wire_bytes,
            self.rebuild_wire_bytes,
            self.survivor_image_bytes,
            self.repair_ratio(),
        )
    }
}

/// Adds one strip-holding node to `net`: a zeroed device behind a link
/// of its own, served by the stock apply loop. Returns the primary's
/// end of the link.
fn spawn_node(net: &SimNet, name: &str, stripes: u64, block_size: BlockSize) -> Box<dyn Transport> {
    let (primary_side, node_side, _ctl) = net.add_link(name, LINK_DELAY);
    let applier = ReplicaApplier::new(MemDevice::new(block_size, stripes));
    serve_sim(net, &node_side, applier);
    Box::new(primary_side)
}

/// Captures a TPC-C write stream, replays it through a six-node
/// `k = 4, m = 2` erasure-coded group, then loses and rebuilds one
/// node — reporting storage and repair-bandwidth economics.
///
/// # Errors
///
/// Propagates workload, replication, and reconstruction failures.
pub fn ec_experiment(
    ops: usize,
    scale: ScalePreset,
) -> Result<EcReport, Box<dyn std::error::Error>> {
    let block_size = BlockSize::kb4();
    // The workload's write stream (post-images only: the group
    // computes its own deltas against its logical device).
    let config = RunConfig {
        scale,
        ..RunConfig::bench(block_size, ops)
    };
    let writes = trace_writes(&capture_trace(Workload::TpccOracle, &config)?).writes;

    let stripes: u64 = 64;
    let placement = EcPlacement::group();
    let blocks = stripes * placement.k as u64;
    let net = SimNet::new();
    let transports = (0..placement.n())
        .map(|node| spawn_node(&net, &format!("node{node}"), stripes, block_size))
        .collect();
    let logical = MemDevice::new(block_size, blocks);
    let mut group = EcGroup::new(logical, EcConfig::default(), transports);

    let mut report = EcReport {
        writes: 0,
        logical_bytes: group.logical_bytes(),
        physical_bytes: group.physical_bytes(),
        write_wire_bytes: 0,
        rebuild_wire_bytes: 0,
        survivor_image_bytes: 0,
    };
    // Replay the stream, folding the workload's LBA space onto the
    // group's (the economics are per-write, not per-address).
    for (lba, data) in writes.iter().take(2_000) {
        let outcome = group.write(Lba(lba.index() % blocks), data)?;
        report.writes += 1;
        report.write_wire_bytes += outcome.wire_bytes;
    }

    // Lose node 2 and rebuild it onto a fresh replacement from k
    // survivors' strip images.
    let lost = 2;
    group.mark_down(lost)?;
    group.replace_node(lost, spawn_node(&net, "replacement", stripes, block_size))?;
    let rebuild = group.rebuild(lost)?;
    report.rebuild_wire_bytes = rebuild.wire_bytes;
    report.survivor_image_bytes = rebuild.survivor_image_bytes;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ec_experiment_meets_storage_and_repair_bounds() {
        let r = ec_experiment(20, ScalePreset::Smoke).unwrap();
        assert!(r.writes > 0, "trace replayed no writes");
        // (a) k=4,m=2 stores at most 1.6x logical vs 3x for mirroring.
        assert!(
            r.storage_overhead() <= 1.6,
            "storage overhead {}",
            r.storage_overhead()
        );
        assert!((r.storage_overhead() - 1.5).abs() < 1e-9);
        assert!(r.mirror_overhead() >= 3.0);
        // (b) single-strip rebuild within the repair-bandwidth bound.
        assert!(
            r.repair_ratio() <= 1.25,
            "rebuild moved {}x the survivor images",
            r.repair_ratio()
        );
        assert!(!r.to_string().is_empty());
    }
}
