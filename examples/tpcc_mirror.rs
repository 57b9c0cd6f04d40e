//! Run a TPC-C database on a remotely mirrored volume and compare what
//! each replication strategy puts on the network — the live version of
//! the paper's Figure 4 experiment.
//!
//! ```sh
//! cargo run --release --example tpcc_mirror
//! ```

use prins_bench::{measure_traffic, replicators, TrafficMeasurement};
use prins_block::BlockSize;
use prins_repl::ReplicationMode;
use prins_workloads::{RunConfig, Workload, WorkloadError};

/// What each of the paper's three strategies ships for one smoke-scale
/// TPC-C run at `block_size`.
fn measure(block_size: BlockSize) -> Result<TrafficMeasurement, WorkloadError> {
    let config = RunConfig::smoke(block_size);
    measure_traffic(
        Workload::TpccOracle,
        &config,
        replicators(&ReplicationMode::PAPER),
    )
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!("TPC-C (Oracle profile) on a replicated volume");
    println!(
        "{:>7} {:>14} {:>14} {:>14} {:>11}",
        "block", "traditional", "compressed", "prins", "trad/prins"
    );
    for block_size in BlockSize::paper_sweep() {
        let m = measure(block_size)?;
        println!(
            "{:>7} {:>11} KB {:>11} KB {:>11} KB {:>10.1}x",
            block_size.to_string(),
            m.payload_bytes(ReplicationMode::Traditional) / 1024,
            m.payload_bytes(ReplicationMode::Compressed) / 1024,
            m.payload_bytes(ReplicationMode::Prins) / 1024,
            m.ratio(ReplicationMode::Traditional, ReplicationMode::Prins),
        );
    }
    println!();
    let m = measure(BlockSize::kb8())?;
    println!(
        "at 8 KB blocks each write changed {:.1}% of its block on average,",
        m.report.mean_change_ratio() * 100.0
    );
    println!(
        "so PRINS shipped {:.0} bytes/write instead of {:.0}.",
        m.traffic(ReplicationMode::Prins).mean_payload(),
        m.traffic(ReplicationMode::Traditional).mean_payload(),
    );
    Ok(())
}
