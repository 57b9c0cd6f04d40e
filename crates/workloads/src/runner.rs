//! One-call workload execution on an instrumented device.

use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use rand::SeedableRng;

use prins_block::{
    BlockDevice, BlockError, BlockSize, InstrumentedDevice, MemDevice, WriteObserver,
};
use prins_fs::FsError;
use prins_pagestore::{BufferPool, DbProfile, StoreError};
use prins_parity::DeltaStats;

use crate::fsmicro::{FsMicro, FsMicroConfig};
use crate::report::RunReport;
use crate::synth::{HostileMix, TextStore};
use crate::tpcc::{TpccDatabase, TpccDriver, TpccScale};
use crate::tpcw::{TpcwDriver, TpcwScale};

/// The four workloads of the paper's evaluation, plus two synthetic
/// ablation workloads for the adaptive policy engine.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Workload {
    /// TPC-C on the Oracle page profile (Figure 4).
    TpccOracle,
    /// TPC-C on the Postgres page profile (Figure 5).
    TpccPostgres,
    /// TPC-W on the MySQL page profile (Figure 6).
    TpcwMysql,
    /// The Ext2 tar micro-benchmark (Figure 7).
    FsMicro,
    /// Whole-document prose rewrites: dense but compressible writes,
    /// the static `Compressed` strategy's home turf.
    Text,
    /// Zoned adversarial mix (sparse-binary / rewrite-text /
    /// rewrite-binary): no static strategy is optimal in every zone.
    HostileMixed,
}

impl Workload {
    /// The paper's workloads in figure order.
    pub const ALL: [Workload; 4] = [
        Workload::TpccOracle,
        Workload::TpccPostgres,
        Workload::TpcwMysql,
        Workload::FsMicro,
    ];

    /// [`ALL`](Self::ALL) plus the synthetic ablation workloads — the
    /// set the adaptive-policy ablation sweeps.
    pub const EXTENDED: [Workload; 6] = [
        Workload::TpccOracle,
        Workload::TpccPostgres,
        Workload::TpcwMysql,
        Workload::FsMicro,
        Workload::Text,
        Workload::HostileMixed,
    ];

    /// Display name ("tpcc-oracle", …).
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpccOracle => "tpcc-oracle",
            Workload::TpccPostgres => "tpcc-postgres",
            Workload::TpcwMysql => "tpcw-mysql",
            Workload::FsMicro => "fs-micro",
            Workload::Text => "text",
            Workload::HostileMixed => "hostile-mixed",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How big a database/corpus to build.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ScalePreset {
    /// Tiny: for unit tests and doc examples (sub-second).
    Smoke,
    /// Laptop-scale benchmarking: preserves schema shape and skew.
    Bench,
}

/// Configuration for [`run`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RunConfig {
    /// Device block size (the paper sweeps 4–64 KB).
    pub block_size: BlockSize,
    /// Operations in the measured phase: transactions (TPC-C),
    /// interactions (TPC-W) or tar rounds (fs-micro).
    pub ops: usize,
    /// RNG seed (runs are fully deterministic given the seed).
    pub seed: u64,
    /// Database/corpus scale.
    pub scale: ScalePreset,
}

impl RunConfig {
    /// A sub-second smoke configuration.
    pub fn smoke(block_size: BlockSize) -> Self {
        Self {
            block_size,
            ops: 40,
            seed: 42,
            scale: ScalePreset::Smoke,
        }
    }

    /// A benchmark configuration with `ops` measured operations.
    pub fn bench(block_size: BlockSize, ops: usize) -> Self {
        Self {
            block_size,
            ops,
            seed: 42,
            scale: ScalePreset::Bench,
        }
    }

    fn fs_rounds(&self) -> usize {
        match self.scale {
            // The paper runs 5 rounds; smoke keeps it short.
            ScalePreset::Smoke => 2.min(self.ops.max(1)),
            ScalePreset::Bench => 5.max(self.ops.min(20)),
        }
    }
}

/// Errors from workload execution.
#[derive(Debug)]
#[non_exhaustive]
pub enum WorkloadError {
    /// Page-store failure (TPC-C / TPC-W).
    Store(StoreError),
    /// Filesystem failure (fs-micro).
    Fs(FsError),
    /// Raw device failure.
    Block(BlockError),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Store(e) => write!(f, "storage engine error: {e}"),
            WorkloadError::Fs(e) => write!(f, "filesystem error: {e}"),
            WorkloadError::Block(e) => write!(f, "device error: {e}"),
        }
    }
}

impl std::error::Error for WorkloadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WorkloadError::Store(e) => Some(e),
            WorkloadError::Fs(e) => Some(e),
            WorkloadError::Block(e) => Some(e),
        }
    }
}

impl From<StoreError> for WorkloadError {
    fn from(e: StoreError) -> Self {
        WorkloadError::Store(e)
    }
}

impl From<FsError> for WorkloadError {
    fn from(e: FsError) -> Self {
        WorkloadError::Fs(e)
    }
}

impl From<BlockError> for WorkloadError {
    fn from(e: BlockError) -> Self {
        WorkloadError::Block(e)
    }
}

/// Builds the configured workload, runs its measured phase, and streams
/// every block write to `observer`.
///
/// The setup phase (database load / corpus population) happens *before*
/// the observer is installed and the counters are reset — mirroring the
/// paper, which measures replication traffic after the initial sync.
///
/// # Errors
///
/// Propagates substrate failures; see [`WorkloadError`].
pub fn run(
    workload: Workload,
    config: &RunConfig,
    observer: Option<WriteObserver>,
) -> Result<RunReport, WorkloadError> {
    let device = Arc::new(InstrumentedDevice::new(MemDevice::new(
        config.block_size,
        device_blocks(workload, config),
    )));
    let mut rng = rand::rngs::StdRng::seed_from_u64(config.seed);

    // Composite observer: accumulate delta statistics, then forward.
    let delta = Arc::new(Mutex::new(DeltaStats::default()));
    let delta_sink = Arc::clone(&delta);
    let mut user_observer = observer;
    let composite: WriteObserver = Box::new(move |seq, lba, old, new| {
        delta_sink
            .lock()
            .expect("delta mutex")
            .merge(&DeltaStats::measure(old, new));
        if let Some(obs) = user_observer.as_mut() {
            obs(seq, lba, old, new);
        }
    });

    let started;
    let ops_done: u64;
    match workload {
        Workload::TpccOracle | Workload::TpccPostgres => {
            let (profile, scale) = tpcc_setup(workload, config);
            let pool = BufferPool::new(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                pool_frames(config),
            );
            let db = TpccDatabase::build(&pool, profile, scale, &mut rng)?;
            let mut driver = TpccDriver::new(db);
            device.reset_stats();
            device.set_observer(composite);
            started = Instant::now();
            driver.run(&mut rng, config.ops)?;
            ops_done = driver.total();
        }
        Workload::TpcwMysql => {
            let scale = match config.scale {
                ScalePreset::Smoke => TpcwScale::tiny(),
                ScalePreset::Bench => TpcwScale::bench(),
            };
            let pool = BufferPool::new(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                pool_frames(config),
            );
            let mut driver = TpcwDriver::build(&pool, scale, &mut rng)?;
            device.reset_stats();
            device.set_observer(composite);
            started = Instant::now();
            driver.run(&mut rng, config.ops)?;
            ops_done = driver.interactions();
        }
        Workload::FsMicro => {
            let fs_config = match config.scale {
                ScalePreset::Smoke => FsMicroConfig::tiny(),
                ScalePreset::Bench => FsMicroConfig::paper(),
            };
            let mut micro = FsMicro::setup(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                fs_config,
                &mut rng,
            )?;
            device.reset_stats();
            device.set_observer(composite);
            started = Instant::now();
            let rounds = config.fs_rounds();
            micro.run(rounds, &mut rng)?;
            ops_done = micro.rounds_run() as u64;
        }
        Workload::Text => {
            let docs = synth_zone_blocks(config);
            let mut store =
                TextStore::setup(Arc::clone(&device) as Arc<dyn BlockDevice>, docs, &mut rng)?;
            device.reset_stats();
            device.set_observer(composite);
            started = Instant::now();
            store.run(config.ops, &mut rng)?;
            ops_done = store.ops_run();
        }
        Workload::HostileMixed => {
            let zone_blocks = synth_zone_blocks(config);
            let mut mix = HostileMix::setup(
                Arc::clone(&device) as Arc<dyn BlockDevice>,
                zone_blocks,
                &mut rng,
            )?;
            device.reset_stats();
            device.set_observer(composite);
            started = Instant::now();
            mix.run(config.ops, &mut rng)?;
            ops_done = mix.ops_run();
        }
    }
    let duration = started.elapsed();
    device.clear_observer();
    let stats = device.stats();
    let delta_total = *delta.lock().expect("delta mutex");
    Ok(RunReport {
        workload: workload.name().to_string(),
        ops: ops_done,
        device_writes: stats.writes,
        device_bytes_written: stats.bytes_written,
        delta: delta_total,
        duration,
    })
}

fn tpcc_setup(workload: Workload, config: &RunConfig) -> (DbProfile, TpccScale) {
    match (workload, config.scale) {
        (Workload::TpccOracle, ScalePreset::Smoke) => (DbProfile::oracle(), TpccScale::tiny()),
        (Workload::TpccOracle, ScalePreset::Bench) => (DbProfile::oracle(), TpccScale::bench()),
        (Workload::TpccPostgres, ScalePreset::Smoke) => (DbProfile::postgres(), TpccScale::tiny()),
        (Workload::TpccPostgres, ScalePreset::Bench) => {
            // The paper's Postgres setup has twice the warehouses of the
            // Oracle one (10 vs 5); preserve the ratio.
            let mut scale = TpccScale::bench();
            scale.warehouses *= 2;
            (DbProfile::postgres(), scale)
        }
        _ => unreachable!("tpcc_setup called for {workload}"),
    }
}

fn device_blocks(workload: Workload, config: &RunConfig) -> u64 {
    if matches!(workload, Workload::Text | Workload::HostileMixed) {
        // Synthetic drivers address blocks directly; size the device to
        // exactly three zones (TextStore uses the first zone's worth).
        return synth_zone_blocks(config) * 3;
    }
    let bytes: u64 = match (workload, config.scale) {
        (Workload::FsMicro, ScalePreset::Smoke) => 32 << 20,
        (Workload::FsMicro, ScalePreset::Bench) => 128 << 20,
        (_, ScalePreset::Smoke) => 64 << 20,
        (_, ScalePreset::Bench) => 512 << 20,
    };
    bytes / config.block_size.bytes() as u64
}

/// Blocks per zone for the synthetic workloads (documents for
/// [`Workload::Text`], one third of the device for
/// [`Workload::HostileMixed`]) — in blocks, not bytes, so the working
/// set keeps the same *write count* shape across block sizes. Kept at
/// 64+ blocks so each hostile zone spans at least one whole
/// classification region of a default-configured policy engine; zones
/// narrower than a region would blend in one slot and stop measuring
/// per-region adaptation.
fn synth_zone_blocks(config: &RunConfig) -> u64 {
    match config.scale {
        ScalePreset::Smoke => 64,
        ScalePreset::Bench => 128,
    }
}

/// DBMS cache size in page frames: a fixed byte budget so the cache
/// pressure (and thus write-back traffic) is comparable across block
/// sizes.
fn pool_frames(config: &RunConfig) -> usize {
    let cache_bytes: usize = match config.scale {
        ScalePreset::Smoke => 4 << 20,
        ScalePreset::Bench => 16 << 20,
    };
    (cache_bytes / config.block_size.bytes()).max(16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    #[test]
    fn every_workload_runs_at_smoke_scale() {
        for workload in Workload::EXTENDED {
            let report = run(workload, &RunConfig::smoke(BlockSize::kb4()), None).unwrap();
            assert!(report.device_writes > 0, "{workload}: {report}");
            assert!(report.ops > 0, "{workload}");
            assert!(report.delta.block_bytes > 0, "{workload}");
        }
    }

    #[test]
    fn observer_sees_every_device_write() {
        let seen = Arc::new(AtomicU64::new(0));
        let sink = Arc::clone(&seen);
        let report = run(
            Workload::TpccOracle,
            &RunConfig::smoke(BlockSize::kb8()),
            Some(Box::new(move |_, _, _, _| {
                sink.fetch_add(1, Ordering::Relaxed);
            })),
        )
        .unwrap();
        assert_eq!(seen.load(Ordering::Relaxed), report.device_writes);
    }

    #[test]
    fn runs_are_deterministic_given_the_seed() {
        let config = RunConfig::smoke(BlockSize::kb4());
        let a = run(Workload::TpcwMysql, &config, None).unwrap();
        let b = run(Workload::TpcwMysql, &config, None).unwrap();
        assert_eq!(a.device_writes, b.device_writes);
        assert_eq!(a.device_bytes_written, b.device_bytes_written);
        assert_eq!(a.delta, b.delta);
        // A different seed shifts the write stream.
        let c = run(Workload::TpcwMysql, &RunConfig { seed: 7, ..config }, None).unwrap();
        assert_ne!(a.delta, c.delta);
    }

    #[test]
    fn change_ratio_is_partial_not_full_block() {
        let report = run(
            Workload::TpccOracle,
            &RunConfig::smoke(BlockSize::kb8()),
            None,
        )
        .unwrap();
        let ratio = report.mean_change_ratio();
        assert!(
            ratio > 0.005 && ratio < 0.6,
            "mean change ratio {ratio:.3} not plausible"
        );
    }
}
