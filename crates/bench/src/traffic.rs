//! Per-strategy replication traffic measurement.

use std::collections::HashSet;
use std::sync::{Arc, Mutex};

use prins_block::{BlockSize, Lba};
use prins_net::LinkModel;
use prins_repl::{ReplicationMode, Replicator};
use prins_workloads::{run, RunConfig, RunReport, Workload, WorkloadError, WriteTrace};

/// Configuration for one traffic measurement.
#[derive(Clone, Copy, Debug)]
pub struct TrafficConfig {
    /// Block size under test (the x-axis of Figures 4–7).
    pub(crate) block_size: BlockSize,
    /// Measured operations (transactions / interactions / tar rounds).
    pub ops: usize,
    /// RNG seed.
    pub(crate) seed: u64,
    /// Whether to use the laptop-scale bench databases (vs smoke).
    pub(crate) bench_scale: bool,
    /// Include the PRINS+LZSS ablation strategy.
    pub(crate) include_ablation: bool,
}

impl TrafficConfig {
    /// Sub-second smoke configuration (unit tests, doc examples).
    pub fn smoke(block_size: BlockSize) -> Self {
        Self {
            block_size,
            ops: 40,
            seed: 42,
            bench_scale: false,
            include_ablation: false,
        }
    }

    /// Benchmark configuration with `ops` measured operations.
    pub fn bench(block_size: BlockSize, ops: usize) -> Self {
        Self {
            block_size,
            ops,
            seed: 42,
            bench_scale: true,
            include_ablation: true,
        }
    }

    pub(crate) fn run_config(&self) -> RunConfig {
        let mut config = if self.bench_scale {
            RunConfig::bench(self.block_size, self.ops)
        } else {
            let mut c = RunConfig::smoke(self.block_size);
            c.ops = self.ops;
            c
        };
        config.seed = self.seed;
        config
    }
}

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

/// Result of one workload × block-size measurement.
#[derive(Clone, Debug)]
pub struct TrafficMeasurement {
    /// Traffic per strategy, in [`ReplicationMode`] order as configured.
    pub(crate) per_mode: Vec<(ReplicationMode, ModeTraffic)>,
    /// The underlying workload report (writes, change ratios, timing).
    pub report: RunReport,
}

impl TrafficMeasurement {
    /// Payload bytes a strategy sent.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not measured.
    pub fn payload_bytes(&self, mode: ReplicationMode) -> u64 {
        self.traffic(mode).payload_bytes
    }

    /// Traffic details for a strategy.
    ///
    /// # Panics
    ///
    /// Panics if `mode` was not measured.
    pub fn traffic(&self, mode: ReplicationMode) -> ModeTraffic {
        self.per_mode
            .iter()
            .find(|(m, _)| *m == mode)
            .map(|(_, t)| *t)
            .unwrap_or_else(|| panic!("mode {mode} was not measured"))
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

/// Runs `workload` once and measures the bytes each replication strategy
/// would send for the observed write stream.
///
/// # Errors
///
/// Propagates workload failures.
pub fn measure_traffic(
    workload: Workload,
    config: &TrafficConfig,
) -> Result<TrafficMeasurement, WorkloadError> {
    let mut modes: Vec<ReplicationMode> = ReplicationMode::PAPER.to_vec();
    if config.include_ablation {
        modes.push(ReplicationMode::PrinsCompressed);
    }
    let replicators: Vec<Box<dyn Replicator>> = modes.iter().map(|m| m.replicator()).collect();
    let link = LinkModel::t1();

    let totals: Arc<Mutex<Vec<ModeTraffic>>> =
        Arc::new(Mutex::new(vec![ModeTraffic::default(); modes.len()]));
    let sink = Arc::clone(&totals);
    let observer = Box::new(move |lba, old: &[u8], new: &[u8]| {
        let mut totals = sink.lock().expect("traffic mutex");
        for (replicator, total) in replicators.iter().zip(totals.iter_mut()) {
            let payload = replicator.encode_write(lba, old, new);
            total.payload_bytes += payload.len() as u64;
            total.wire_bytes += link.wire_bytes(payload.len());
            total.writes += 1;
        }
    });

    let report = run(workload, &config.run_config(), Some(observer))?;
    let totals = Arc::try_unwrap(totals)
        .expect("observer dropped")
        .into_inner()
        .expect("traffic mutex");
    Ok(TrafficMeasurement {
        per_mode: modes.into_iter().zip(totals).collect(),
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

    #[test]
    fn prins_beats_traditional_on_every_workload() {
        for workload in Workload::ALL {
            let m = measure_traffic(workload, &TrafficConfig::smoke(BlockSize::kb8())).unwrap();
            let ratio = m.ratio(ReplicationMode::Traditional, ReplicationMode::Prins);
            assert!(
                ratio > 2.0,
                "{workload}: traditional/prins ratio only {ratio:.2}"
            );
        }
    }

    #[test]
    fn traditional_payload_equals_blocks_plus_headers() {
        let m = measure_traffic(
            Workload::TpccOracle,
            &TrafficConfig::smoke(BlockSize::kb8()),
        )
        .unwrap();
        let t = m.traffic(ReplicationMode::Traditional);
        // Payload per write = block + small payload header.
        let per_write = t.payload_bytes as f64 / t.writes as f64;
        assert!((8192.0..8210.0).contains(&per_write), "{per_write}");
        assert!(t.wire_bytes > t.payload_bytes);
    }

    #[test]
    fn prins_payload_tracks_changed_bytes_not_block_size() {
        let m4 = measure_traffic(
            Workload::TpccOracle,
            &TrafficConfig::smoke(BlockSize::kb4()),
        )
        .unwrap();
        let m64 = measure_traffic(
            Workload::TpccOracle,
            &TrafficConfig::smoke(BlockSize::kb64()),
        )
        .unwrap();
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
    fn ablation_mode_is_included_when_asked() {
        let mut config = TrafficConfig::smoke(BlockSize::kb4());
        config.include_ablation = true;
        let m = measure_traffic(Workload::FsMicro, &config).unwrap();
        assert_eq!(m.per_mode.len(), 4);
        let prins = m.payload_bytes(ReplicationMode::Prins);
        let ablate = m.payload_bytes(ReplicationMode::PrinsCompressed);
        assert!(ablate <= prins + prins / 10, "{ablate} vs {prins}");
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn unmeasured_mode_panics() {
        let m =
            measure_traffic(Workload::FsMicro, &TrafficConfig::smoke(BlockSize::kb4())).unwrap();
        let _ = m.payload_bytes(ReplicationMode::PrinsCompressed);
    }
}
