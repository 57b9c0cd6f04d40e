//! Per-strategy replication traffic measurement.

use std::collections::HashSet;
use std::fmt;
use std::sync::{Arc, Mutex};

use prins_block::Lba;
use prins_net::LinkModel;
use prins_repl::{ReplicationMode, Replicator};
use prins_workloads::{run, RunConfig, RunReport, Workload, WorkloadError, WriteTrace};

/// Accumulated traffic for one replication strategy.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ModeTraffic {
    /// Sum of encoded payload sizes (what the paper's bar charts show).
    pub(crate) payload_bytes: u64,
    /// Payload plus per-packet protocol headers on the paper's link
    /// model (1.5 KB MTU + 112 B headers).
    pub(crate) wire_bytes: u64,
    /// Number of replicated writes.
    pub(crate) writes: u64,
}

impl ModeTraffic {
    /// Mean payload bytes per replicated write.
    pub fn mean_payload(&self) -> f64 {
        if self.writes == 0 {
            0.0
        } else {
            self.payload_bytes as f64 / self.writes as f64
        }
    }
}

/// Result of one workload run accounted through a set of replicators.
#[derive(Clone, Debug)]
pub struct TrafficMeasurement {
    /// Traffic per replicator, keyed by [`Replicator::name`], in the
    /// order [`measure_traffic`] was given them.
    pub(crate) per_replicator: Vec<(&'static str, ModeTraffic)>,
    /// The underlying workload report (writes, change ratios, timing).
    pub report: RunReport,
}

impl TrafficMeasurement {
    /// Payload bytes a strategy sent.
    ///
    /// # Panics
    ///
    /// Panics if `strategy` was not measured.
    pub fn payload_bytes(&self, strategy: impl fmt::Display) -> u64 {
        self.traffic(strategy).payload_bytes
    }

    /// Traffic details for a strategy: a [`ReplicationMode`], or any
    /// replicator's [`Replicator::name`] (a mode's `Display` name is its
    /// replicator's name).
    ///
    /// # Panics
    ///
    /// Panics if `strategy` was not measured.
    pub fn traffic(&self, strategy: impl fmt::Display) -> ModeTraffic {
        let name = strategy.to_string();
        self.per_replicator
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("{name} was not measured"))
    }

    /// Ratio of payload bytes between two strategies (`a / b`).
    ///
    /// # Panics
    ///
    /// Panics if either mode was not measured.
    pub fn ratio(&self, a: ReplicationMode, b: ReplicationMode) -> f64 {
        self.payload_bytes(a) as f64 / self.payload_bytes(b).max(1) as f64
    }
}

/// One replicator per mode, in order: [`measure_traffic`]'s input for
/// the static strategies.
pub fn replicators(modes: &[ReplicationMode]) -> Vec<Arc<dyn Replicator>> {
    modes
        .iter()
        .map(|mode| Arc::from(mode.replicator()))
        .collect()
}

/// Runs `workload` once and accounts every block write through each of
/// `replicators`: the payload and wire bytes each would send for the
/// observed write stream.
///
/// # Errors
///
/// Propagates workload failures.
pub fn measure_traffic(
    workload: Workload,
    config: &RunConfig,
    replicators: Vec<Arc<dyn Replicator>>,
) -> Result<TrafficMeasurement, WorkloadError> {
    let link = LinkModel::t1();
    let totals: Vec<(&'static str, ModeTraffic)> = replicators
        .iter()
        .map(|r| (r.name(), ModeTraffic::default()))
        .collect();
    let totals = Arc::new(Mutex::new(totals));
    let sink = Arc::clone(&totals);
    let observer = Box::new(move |lba, old: &[u8], new: &[u8]| {
        let mut totals = sink.lock().expect("traffic mutex");
        for (replicator, (_, total)) in replicators.iter().zip(totals.iter_mut()) {
            let payload = replicator.encode_write(lba, old, new);
            total.payload_bytes += payload.len() as u64;
            total.wire_bytes += link.wire_bytes(payload.len());
            total.writes += 1;
        }
    });

    let report = run(workload, config, Some(observer))?;
    let per_replicator = Arc::try_unwrap(totals)
        .expect("observer dropped")
        .into_inner()
        .expect("traffic mutex");
    Ok(TrafficMeasurement {
        per_replicator,
        report,
    })
}

/// A trace flattened for replay: the write stream, each touched block's
/// pre-trace image, and the device size the stream needs.
pub(crate) struct TraceStream {
    pub(crate) writes: Vec<(Lba, Vec<u8>)>,
    pub(crate) initial: Vec<(Lba, Vec<u8>)>,
    pub(crate) num_blocks: u64,
}

/// Collects the trace's write stream plus each block's pre-trace image.
pub(crate) fn trace_writes(trace: &WriteTrace) -> TraceStream {
    let mut writes = Vec::with_capacity(trace.len());
    let mut initial = Vec::new();
    let mut seen = HashSet::new();
    let mut max_lba = 0u64;
    trace.replay(|lba, old, new| {
        if seen.insert(lba.index()) {
            initial.push((lba, old.to_vec()));
        }
        max_lba = max_lba.max(lba.index());
        writes.push((lba, new.to_vec()));
    });
    TraceStream {
        writes,
        initial,
        num_blocks: max_lba + 1,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::BlockSize;

    fn paper(workload: Workload, block_size: BlockSize) -> TrafficMeasurement {
        let config = RunConfig::smoke(block_size);
        measure_traffic(workload, &config, replicators(&ReplicationMode::PAPER)).unwrap()
    }

    #[test]
    fn prins_beats_traditional_on_every_workload() {
        for workload in Workload::ALL {
            // Every static strategy sees the same write stream, the
            // PRINS+LZSS ablation included: compressing the parity never
            // costs more than a rounding error over plain PRINS.
            let config = RunConfig::smoke(BlockSize::kb8());
            let m = measure_traffic(workload, &config, replicators(&ReplicationMode::ALL)).unwrap();
            assert_eq!(m.per_replicator.len(), 4);
            let ratio = m.ratio(ReplicationMode::Traditional, ReplicationMode::Prins);
            assert!(
                ratio > 2.0,
                "{workload}: traditional/prins ratio only {ratio:.2}"
            );
            let prins = m.payload_bytes(ReplicationMode::Prins);
            let ablate = m.payload_bytes(ReplicationMode::PrinsCompressed);
            assert!(
                ablate <= prins + prins / 10,
                "{workload}: {ablate} vs {prins}"
            );
        }
    }

    #[test]
    fn traditional_payload_equals_blocks_plus_headers() {
        let m = paper(Workload::TpccOracle, BlockSize::kb8());
        let t = m.traffic(ReplicationMode::Traditional);
        // Payload per write = block + small payload header.
        let per_write = t.payload_bytes as f64 / t.writes as f64;
        assert!((8192.0..8210.0).contains(&per_write), "{per_write}");
        assert!(t.wire_bytes > t.payload_bytes);
    }

    #[test]
    fn prins_payload_tracks_changed_bytes_not_block_size() {
        let m4 = paper(Workload::TpccOracle, BlockSize::kb4());
        let m64 = paper(Workload::TpccOracle, BlockSize::kb64());
        let p4 = m4.traffic(ReplicationMode::Prins).mean_payload();
        let p64 = m64.traffic(ReplicationMode::Prins).mean_payload();
        let t4 = m4.traffic(ReplicationMode::Traditional).mean_payload();
        let t64 = m64.traffic(ReplicationMode::Traditional).mean_payload();
        // Traditional scales 16x with block size; PRINS far less.
        assert!(t64 / t4 > 12.0);
        assert!(
            p64 / p4 < t64 / t4 / 2.0,
            "prins per-write grew {p4} -> {p64}, nearly like traditional"
        );
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn unmeasured_mode_panics() {
        let m = paper(Workload::FsMicro, BlockSize::kb4());
        let _ = m.payload_bytes(ReplicationMode::PrinsCompressed);
    }
}
