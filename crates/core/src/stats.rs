//! Engine statistics, including the CPU-overhead accounting behind the
//! paper's "< 10 % overhead" claim.

use std::time::Duration;

/// Counters and timings accumulated by a [`PrinsEngine`](crate::PrinsEngine).
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

    /// Mean wire bytes (see
    /// [`replicated_payload_bytes`](Self::replicated_payload_bytes)) per
    /// replicated write.
    pub fn mean_payload_per_write(&self) -> f64 {
        if self.writes_replicated == 0 {
            0.0
        } else {
            self.replicated_payload_bytes as f64 / self.writes_replicated as f64
        }
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

impl LaneStats {
    /// Mean round-trip-inclusive acknowledgement wait per frame.
    pub fn mean_ack_wait(&self) -> Duration {
        self.ack_nanos
            .checked_div(self.sends)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let s = EngineStats::default();
        assert_eq!(s.overhead_ratio(), 0.0);
        assert_eq!(s.mean_payload_per_write(), 0.0);
        assert!(s.overhead_ratio().is_finite());
        assert!(s.mean_payload_per_write().is_finite());
        // The lane-side ratio guards the same way: an idle lane reports
        // a zero wait, never NaN or a division panic.
        assert_eq!(LaneStats::default().mean_ack_wait(), Duration::ZERO);
    }

    #[test]
    fn derived_values() {
        let s = EngineStats {
            writes: 10,
            writes_replicated: 10,
            replicated_payload_bytes: 1000,
            local_write_nanos: 1_000_000,
            overhead_nanos: 50_000,
            ..Default::default()
        };
        assert!((s.overhead_ratio() - 0.05).abs() < 1e-12);
        assert!((s.mean_payload_per_write() - 100.0).abs() < 1e-12);
        assert_eq!(s.local_write_time(), Duration::from_millis(1));
    }
}
