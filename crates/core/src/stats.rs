//! Engine statistics, including the CPU-overhead accounting behind the
//! paper's "< 10 % overhead" claim. Both structs are views: the numbers
//! live in the engine's probe (`crate::obs`), as `prins-obs` instruments.

use std::time::Duration;

/// Counters and timings accumulated by a [`PrinsEngine`](crate::PrinsEngine)
/// (see [`PrinsEngine::stats`](crate::PrinsEngine::stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Block writes accepted by the engine.
    pub writes: u64,
    /// Writes fully replicated (acknowledged by every replica).
    pub writes_replicated: u64,
    /// Wire bytes handed to the transports, summed over the lanes:
    /// whole sealed frames (seal envelope and batch headers included),
    /// every retransmission counted again. The name is historical.
    pub replicated_payload_bytes: u64,
    /// Nanoseconds spent on PRINS-specific work in the write path:
    /// reading the old image and XOR/encode of the parity.
    pub(crate) overhead_nanos: u64,
    /// Replication failures observed (payloads NAKed or transports
    /// down).
    pub replication_errors: u64,
    /// Always 0: the engine ships every write it accepts. Kept only
    /// for the `benchmark/` harness, whose ledger reads it.
    pub coalesced_writes: u64,
    /// High-water mark of the encode admission queue depth — how far
    /// the application ran ahead of the pipeline.
    pub queue_depth_hwm: u64,
}

impl EngineStats {
    /// Total time spent on parity capture/encoding.
    pub fn overhead_time(&self) -> Duration {
        Duration::from_nanos(self.overhead_nanos)
    }
}

/// Counters for one per-replica sender lane (see
/// [`PrinsEngine::lane_stats`](crate::PrinsEngine::lane_stats)).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Wire frames transmitted (a batch frame counts once).
    pub sends: u64,
    /// Writes acknowledged by this replica.
    pub acked_writes: u64,
    /// Wire bytes successfully handed to this transport: whole sealed
    /// frames (seal envelope and batch headers included), every
    /// retransmission counted again. The name is historical.
    pub(crate) payload_bytes: u64,
    /// Send or acknowledgement failures on this lane.
    pub errors: u64,
}
