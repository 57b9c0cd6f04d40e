//! Workload run reports.

use std::time::Duration;

use prins_parity::DeltaStats;

/// Summary of one workload run on an instrumented device.
#[derive(Clone, Debug, PartialEq)]
pub struct RunReport {
    /// Which workload ran (display name).
    pub(crate) workload: String,
    /// Operations executed (transactions / interactions / tar rounds).
    pub ops: u64,
    /// Block writes the device observed during the measured phase.
    pub device_writes: u64,
    /// Bytes written at block level.
    pub(crate) device_bytes_written: u64,
    /// Aggregate old-vs-new delta statistics across all writes.
    pub(crate) delta: DeltaStats,
    /// Wall-clock duration of the measured phase.
    pub(crate) duration: Duration,
}

impl RunReport {
    /// Mean fraction of each block changed per write — the quantity the
    /// paper reports as 5–20 % for real applications.
    pub fn mean_change_ratio(&self) -> f64 {
        self.delta.change_ratio()
    }

    /// Device writes per operation.
    pub fn writes_per_op(&self) -> f64 {
        if self.ops == 0 {
            0.0
        } else {
            self.device_writes as f64 / self.ops as f64
        }
    }
}

impl std::fmt::Display for RunReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}: {} ops, {} block writes ({} KB), {:.1}% mean change, {:.2?}",
            self.workload,
            self.ops,
            self.device_writes,
            self.device_bytes_written / 1024,
            self.mean_change_ratio() * 100.0,
            self.duration
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_metrics() {
        let r = RunReport {
            workload: "tpcc".into(),
            ops: 10,
            device_writes: 40,
            device_bytes_written: 40 * 8192,
            delta: DeltaStats {
                block_bytes: 40 * 8192,
                changed_bytes: 40 * 819,
                changed_extents: 40,
            },
            duration: Duration::from_millis(5),
        };
        assert!((r.writes_per_op() - 4.0).abs() < 1e-12);
        assert!((r.mean_change_ratio() - 0.1).abs() < 1e-3);
        assert!(r.to_string().contains("tpcc"));
    }
}
