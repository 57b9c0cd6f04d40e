//! Integration tests for the tooling layer: content-carrying traces and
//! the filesystem checker, across crate boundaries.

use std::sync::Arc;

use prins_bench::{measure_traffic, replicators};
use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_fs::Fs;
use prins_net::{channel_pair, LinkModel};
use prins_repl::{run_replica, ReplicationMode};
use prins_workloads::{capture_trace, RunConfig, Workload, WriteTrace};

/// A captured trace must contain exactly the information the live
/// measurement sees: replaying it through each strategy reproduces the
/// measured byte counts to the byte.
#[test]
fn trace_replay_matches_live_measurement_exactly() {
    let config = RunConfig::smoke(BlockSize::kb8());
    let trace = capture_trace(Workload::TpccOracle, &config).unwrap();

    // Round-trip the trace through its file format first.
    let trace = WriteTrace::from_bytes(&trace.to_bytes()).unwrap();

    let live = measure_traffic(
        Workload::TpccOracle,
        &config,
        replicators(&ReplicationMode::PAPER),
    )
    .unwrap();

    for mode in ReplicationMode::PAPER {
        let replicator = mode.replicator();
        let mut replayed = 0u64;
        trace.replay(|lba, old, new| {
            replayed += replicator.encode_write(Lba(lba.index()), old, new).len() as u64;
        });
        assert_eq!(
            replayed,
            live.payload_bytes(mode),
            "{mode}: trace replay diverged from live measurement"
        );
    }
}

/// A replica volume produced by PRINS replication of filesystem traffic
/// must not just be byte-identical — it must pass a structural fsck.
#[test]
fn replica_of_a_filesystem_passes_fsck() {
    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let replica_vol = Arc::new(MemDevice::new(BlockSize::kb4(), 4096));
    let replica = {
        let volume = Arc::clone(&replica_vol);
        std::thread::spawn(move || run_replica(&*volume, &downlink))
    };

    let primary_vol = Arc::new(MemDevice::new(BlockSize::kb4(), 4096));
    let engine = EngineBuilder::new(Arc::clone(&primary_vol) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .replica(Box::new(uplink))
        .build();

    let fs = Fs::format(Arc::new(engine) as Arc<dyn BlockDevice>, 256).unwrap();
    fs.create_dir("/data").unwrap();
    for i in 0..12 {
        fs.write_file(&format!("/data/f{i}"), &vec![i as u8; 9_000])
            .unwrap();
    }
    fs.rename("/data/f0", "/data/renamed").unwrap();
    fs.unlink("/data/f1").unwrap();
    fs.truncate("/data/f2", 100).unwrap();
    assert!(fs.check().unwrap().is_clean());

    // Drop the fs (and with it the engine) to hang up the link.
    fs.device().flush().unwrap();
    drop(fs);
    replica.join().unwrap().unwrap();

    // The replica mounts and fscks clean, with the same contents.
    let replica_fs = Fs::mount(replica_vol).unwrap();
    let report = replica_fs.check().unwrap();
    assert!(report.is_clean(), "{:?}", report.issues);
    assert_eq!(report.files, 11); // 12 created - 1 unlinked
    assert_eq!(
        replica_fs.read_file("/data/renamed").unwrap(),
        vec![0u8; 9_000]
    );
    assert_eq!(replica_fs.metadata("/data/f2").unwrap().size, 100);
}

/// Different workloads must produce different traces, and the same
/// workload + seed must produce the same trace bytes (full determinism
/// of the measurement pipeline).
#[test]
fn traces_are_deterministic_and_workload_specific() {
    let config = RunConfig::smoke(BlockSize::kb4());
    let a = capture_trace(Workload::FsMicro, &config)
        .unwrap()
        .to_bytes();
    let b = capture_trace(Workload::FsMicro, &config)
        .unwrap()
        .to_bytes();
    assert_eq!(a, b, "same workload + seed must capture identical traces");
    let c = capture_trace(Workload::TpcwMysql, &config)
        .unwrap()
        .to_bytes();
    assert_ne!(a, c);
}
