//! Degraded-mode write-through and delta resync, end to end: a replica
//! is killed mid-trace (link severed), the primary keeps accepting
//! writes, the replica rejoins, and the parity-log catch-up leaves it
//! bit-identical for a small fraction of the full-image sync cost.

use prins_bench::resync_experiment;
use prins_block::BlockSize;
use prins_workloads::{capture_trace, RunConfig, Workload};

#[test]
fn mid_trace_outage_recovers_with_cheap_delta_resync() {
    let mut config = RunConfig::smoke(BlockSize::kb8());
    config.ops = 80;
    let trace = capture_trace(Workload::TpccOracle, &config).expect("trace captures");
    assert!(trace.len() >= 40, "trace too short to stage an outage");

    // A 5-minute-equivalent outage: TPC-C here sustains roughly one
    // logged write per second of modeled time, so a quarter of the
    // trace (~40+ writes) stands in for minutes of missed updates.
    let outage = trace.len() / 4;
    let start = trace.len() / 4;
    let m = resync_experiment(&trace, start, outage).unwrap();
    assert!(m.consistent, "replica diverged after resync");
    assert!(m.dirty_blocks > 0, "outage dirtied nothing");

    let block = trace.block_size().bytes() as u64;
    let volume = m.volume_blocks * block;
    let dirty = m.dirty_blocks as u64 * block;
    let parity = m.resync_bytes;
    assert!(parity > 0, "outage must cost something to repair");
    assert!(
        (parity as f64) < 0.10 * volume as f64,
        "parity-log resync sent {parity} B, the volume image is {volume} B: not under 10%"
    );
    assert!(
        parity <= dirty,
        "parity-log resync sent {parity} B, more than the dirty blocks' {dirty} B of images"
    );
}

#[test]
fn dirty_bitmap_sits_between_parity_log_and_full_image() {
    let mut config = RunConfig::smoke(BlockSize::kb8());
    config.ops = 80;
    let trace = capture_trace(Workload::TpccOracle, &config).expect("trace captures");
    let start = trace.len() / 3;
    let outage = 2 * trace.len() / 3 - start;
    let m = resync_experiment(&trace, start, outage).unwrap();
    assert!(m.consistent, "replica diverged after resync");

    // A dirty-bitmap resync ships every dirty block's image and a
    // full-image resync ships the whole volume; both are fixed by the
    // block sets, so the measured parity-log resync is compared with them.
    let block = trace.block_size().bytes() as u64;
    let full = m.volume_blocks * block;
    let bitmap = m.dirty_blocks as u64 * block;
    let parity = m.resync_bytes;
    assert!(parity < bitmap, "parity {parity} >= bitmap {bitmap}");
    assert!(bitmap < full, "bitmap {bitmap} >= full {full}");
}
