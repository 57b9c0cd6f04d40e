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
    /// Block reads served.
    pub reads: u64,
    /// Writes fully replicated (acknowledged by every replica).
    pub writes_replicated: u64,
    /// Wire bytes handed to the transports, summed over the lanes:
    /// whole sealed frames (seal envelope and batch headers included),
    /// every retransmission counted again. The name is historical.
    pub replicated_payload_bytes: u64,
    /// Nanoseconds spent performing local block writes (the unavoidable
    /// base cost).
    pub local_write_nanos: u64,
    /// Nanoseconds spent on PRINS-specific work in the write path:
    /// reading the old image and XOR/encode of the parity.
    pub overhead_nanos: u64,
    /// Nanoseconds the replication thread spent sending and awaiting
    /// acknowledgements (off the critical path).
    pub send_nanos: u64,
    /// Replication failures observed (payloads NAKed or transports
    /// down).
    pub replication_errors: u64,
    /// Writes folded into a still-queued write to the same LBA
    /// (XOR-coalescing; zero unless enabled on the builder).
    pub coalesced_writes: u64,
    /// High-water mark of the encode admission queue depth — how far
    /// the application ran ahead of the pipeline.
    pub queue_depth_hwm: u64,
}

impl EngineStats {
    /// PRINS overhead relative to the local write cost, as a fraction
    /// (the paper measures "less than 10% of traditional replications"
    /// without RAID; ~0 with RAID, where the parity is a by-product).
    pub fn overhead_ratio(&self) -> f64 {
        if self.local_write_nanos == 0 {
            0.0
        } else {
            self.overhead_nanos as f64 / self.local_write_nanos as f64
        }
    }

    /// Total time spent on local writes.
    pub fn local_write_time(&self) -> Duration {
        Duration::from_nanos(self.local_write_nanos)
    }

    /// Total time spent on parity capture/encoding.
    pub fn overhead_time(&self) -> Duration {
        Duration::from_nanos(self.overhead_nanos)
    }
}

/// Counters for one per-replica sender lane (see
/// [`PrinsEngine::lane_stats`](crate::PrinsEngine::lane_stats)).
///
/// The split between `send_nanos` (time in `Transport::send`) and
/// `ack_nanos` (time waiting for acknowledgements) is what makes a
/// slow replica visible: its lane accumulates ack time while the
/// other lanes keep draining.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LaneStats {
    /// Wire frames transmitted (a batch frame counts once).
    pub sends: u64,
    /// Writes acknowledged by this replica (folded writes count each
    /// original write).
    pub acked_writes: u64,
    /// Wire bytes successfully handed to this transport: whole sealed
    /// frames (seal envelope and batch headers included), every
    /// retransmission counted again. The name is historical.
    pub payload_bytes: u64,
    /// Nanoseconds inside `Transport::send`.
    pub send_nanos: u64,
    /// Nanoseconds waiting for acknowledgements.
    pub ack_nanos: u64,
    /// Send or acknowledgement failures on this lane.
    pub errors: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = EngineStats::default();
        assert_eq!(s.overhead_ratio(), 0.0);
        assert!(s.overhead_ratio().is_finite());
    }

    #[test]
    fn derived_values() {
        let s = EngineStats {
            local_write_nanos: 1_000_000,
            overhead_nanos: 50_000,
            ..Default::default()
        };
        assert!((s.overhead_ratio() - 0.05).abs() < 1e-12);
        assert_eq!(s.local_write_time(), Duration::from_millis(1));
    }
}
