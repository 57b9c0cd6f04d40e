//! Integration tests spanning the full stack: application substrates
//! (pagestore / filesystem / iSCSI) on top of a PRINS-replicated volume,
//! with bit-exact replica verification.

use std::sync::Arc;

use prins_block::{BlockDevice, BlockSize, InstrumentedDevice, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_fs::Fs;
use prins_iscsi::{Initiator, Target};
use prins_net::{channel_pair, LinkModel, Transport};
use prins_pagestore::{BufferPool, DbProfile};
use prins_raid::{RaidArray, RaidLevel};
use prins_repl::{run_replica, verify_consistent, ReplicationMode};
use prins_workloads::{TpccDatabase, TpccDriver, TpccScale};
use rand::SeedableRng;

/// Builds a (engine, primary, replica, replica_thread) quad on an
/// in-memory link.
#[allow(clippy::type_complexity)]
fn replicated_engine(
    mode: ReplicationMode,
    blocks: u64,
) -> (
    Arc<prins_core::PrinsEngine>,
    Arc<MemDevice>,
    Arc<MemDevice>,
    std::thread::JoinHandle<Result<u64, prins_repl::ReplError>>,
    Arc<prins_net::TrafficMeter>,
) {
    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let meter = Arc::clone(uplink.meter());
    let replica_volume = Arc::new(MemDevice::new(BlockSize::kb8(), blocks));
    let replica = {
        let volume = Arc::clone(&replica_volume);
        std::thread::spawn(move || run_replica(&*volume, &downlink))
    };
    let primary_volume = Arc::new(MemDevice::new(BlockSize::kb8(), blocks));
    let engine = Arc::new(
        EngineBuilder::new(Arc::clone(&primary_volume) as Arc<dyn BlockDevice>)
            .mode(mode)
            .replica(Box::new(uplink))
            .build(),
    );
    (engine, primary_volume, replica_volume, replica, meter)
}

fn shutdown(
    engine: Arc<prins_core::PrinsEngine>,
    replica: std::thread::JoinHandle<Result<u64, prins_repl::ReplError>>,
) {
    Arc::try_unwrap(engine)
        .expect("engine uniquely owned at shutdown")
        .shutdown()
        .expect("shutdown clean");
    replica.join().expect("replica thread").expect("replica ok");
}

#[test]
fn tpcc_database_on_prins_engine_mirrors_exactly() {
    let (engine, primary, replica_vol, replica, meter) =
        replicated_engine(ReplicationMode::Prins, 8192);

    let pool = BufferPool::new(Arc::clone(&engine) as Arc<dyn BlockDevice>, 128);
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    let db = TpccDatabase::build(&pool, DbProfile::oracle(), TpccScale::tiny(), &mut rng)
        .expect("database builds");
    let mut driver = TpccDriver::new(db);
    driver.run(&mut rng, 150).expect("transactions run");
    engine.flush().expect("replication barrier");
    drop(driver); // releases the database's pool handle on the engine
    drop(pool);

    let stats = engine.stats();
    assert!(stats.writes > 100, "expected many block writes: {stats:?}");
    assert_eq!(stats.replication_errors, 0);
    // PRINS sent far less than the full blocks.
    assert!(
        meter.payload_bytes_sent() * 3 < stats.writes * 8192,
        "prins sent {} for {} writes",
        meter.payload_bytes_sent(),
        stats.writes
    );

    shutdown(engine, replica);
    assert!(verify_consistent(&*primary, &*replica_vol).unwrap());
}

#[test]
fn filesystem_on_prins_engine_mirrors_exactly() {
    let (engine, primary, replica_vol, replica, _meter) =
        replicated_engine(ReplicationMode::Prins, 4096);

    let fs = Fs::format(Arc::clone(&engine) as Arc<dyn BlockDevice>, 256).expect("format");
    fs.create_dir("/project").unwrap();
    fs.write_file("/project/readme.md", b"# PRINS reproduction\n")
        .unwrap();
    fs.write_file("/project/data.bin", &vec![0xa5u8; 100_000])
        .unwrap();
    fs.write_at("/project/data.bin", 50_000, b"patched-in-place")
        .unwrap();
    prins_fs::tar::create(&fs, &["/project"], "/backup.tar").unwrap();
    fs.unlink("/project/data.bin").unwrap();
    engine.flush().expect("replication barrier");
    drop(fs); // releases the filesystem's handle on the engine

    shutdown(engine, replica);
    assert!(verify_consistent(&*primary, &*replica_vol).unwrap());

    // The replica volume is a mountable filesystem with the same data.
    let replica_fs = Fs::mount(replica_vol).expect("replica mounts");
    assert_eq!(
        replica_fs.read_file("/project/readme.md").unwrap(),
        b"# PRINS reproduction\n"
    );
    assert!(!replica_fs.exists("/project/data.bin"));
    let entries = prins_fs::tar::list(&replica_fs, "/backup.tar").unwrap();
    assert!(entries.iter().any(|e| e.path == "/project/data.bin"));
}

#[test]
fn every_replication_mode_converges_under_mixed_io() {
    for mode in ReplicationMode::ALL {
        let (engine, primary, replica_vol, replica, _meter) = replicated_engine(mode, 256);
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        use rand::RngExt;
        for _ in 0..200 {
            let lba = Lba(rng.random_range(0..256));
            let mut block = engine.read_block_vec(lba).unwrap();
            let at = rng.random_range(0..8000);
            for b in &mut block[at..at + 64] {
                *b = rng.random();
            }
            engine.write_block(lba, &block).unwrap();
        }
        engine.flush().unwrap();
        shutdown(engine, replica);
        assert!(
            verify_consistent(&*primary, &*replica_vol).unwrap(),
            "{mode} diverged"
        );
    }
}

#[test]
fn raid5_backed_engine_survives_member_failure_and_stays_consistent() {
    // Primary volume is a RAID-5 array; PRINS replicates on top.
    let members: Vec<Arc<dyn BlockDevice>> = (0..4)
        .map(|_| Arc::new(MemDevice::new(BlockSize::kb8(), 64)) as Arc<dyn BlockDevice>)
        .collect();
    let raid = Arc::new(RaidArray::new(RaidLevel::Raid5, members).unwrap());

    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let replica_volume = Arc::new(MemDevice::new(
        BlockSize::kb8(),
        raid.geometry().num_blocks(),
    ));
    let replica = {
        let volume = Arc::clone(&replica_volume);
        std::thread::spawn(move || run_replica(&*volume, &downlink))
    };
    let engine = EngineBuilder::new(Arc::clone(&raid) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .replica(Box::new(uplink))
        .build();

    for i in 0..96u64 {
        engine
            .write_block(Lba(i), &vec![(i % 250) as u8 + 1; 8192])
            .unwrap();
    }
    // A disk dies mid-run; the engine keeps serving and replicating.
    raid.fail_member(2);
    for i in 0..96u64 {
        let mut block = engine.read_block_vec(Lba(i)).unwrap();
        block[0] ^= 0xff;
        engine.write_block(Lba(i), &block).unwrap();
    }
    engine.flush().unwrap();
    engine.shutdown().unwrap();
    replica.join().unwrap().unwrap();

    // Replica matches the degraded-but-correct array contents.
    for i in 0..96u64 {
        assert_eq!(
            raid.read_block_vec(Lba(i)).unwrap(),
            replica_volume.read_block_vec(Lba(i)).unwrap(),
            "block {i}"
        );
    }
}

#[test]
fn raid5_backed_engine_reads_each_old_image_once() {
    // A healthy RAID-5 small write under the engine costs two member
    // reads: the engine's capture of the old image (the data member)
    // and the parity member. The array's own data-member read is the
    // capture, handed down with `write_block_over`.
    let members: Vec<Arc<InstrumentedDevice<MemDevice>>> = (0..4)
        .map(|_| {
            Arc::new(InstrumentedDevice::new(MemDevice::new(
                BlockSize::kb8(),
                32,
            )))
        })
        .collect();
    let raid = Arc::new(
        RaidArray::new(
            RaidLevel::Raid5,
            members
                .iter()
                .map(|m| Arc::clone(m) as Arc<dyn BlockDevice>)
                .collect(),
        )
        .unwrap(),
    );
    let (uplink, downlink) = channel_pair(LinkModel::gigabit_lan());
    let replica_volume = Arc::new(MemDevice::new(
        BlockSize::kb8(),
        raid.geometry().num_blocks(),
    ));
    let replica = {
        let volume = Arc::clone(&replica_volume);
        std::thread::spawn(move || run_replica(&*volume, &downlink))
    };
    let engine = EngineBuilder::new(Arc::clone(&raid) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .replica(Box::new(uplink))
        .build();

    let member_reads = || members.iter().map(|m| m.stats().reads).sum::<u64>();
    let writes = raid.geometry().num_blocks();
    for round in 0..2u8 {
        for i in 0..writes {
            let mut block = vec![round; 8192];
            let at = (i as usize * 173) % 7900;
            block[at..at + 200].fill(i as u8 ^ 0x5a);
            engine.write_block(Lba(i), &block).unwrap();
        }
    }
    assert_eq!(member_reads(), 2 * 2 * writes, "member reads per write");
    engine.shutdown().unwrap();
    replica.join().unwrap().unwrap();

    assert!(raid.scrub().unwrap().is_clean());
    assert!(verify_consistent(&*raid, &*replica_volume).unwrap());
}

#[test]
fn iscsi_initiator_drives_a_prins_replicated_target() {
    let (engine, primary, replica_vol, replica, meter) =
        replicated_engine(ReplicationMode::Prins, 64);

    let (client_side, server_side) = channel_pair(LinkModel::gigabit_lan());
    let target = Target::spawn(Arc::clone(&engine) as Arc<dyn BlockDevice>, server_side);

    let mut initiator = Initiator::login(client_side, "iqn.test.integration").unwrap();
    assert_eq!(initiator.num_blocks(), 64);
    let bs = initiator.block_size() as usize;
    for lba in 0..48u64 {
        let mut block = initiator.read_blocks(lba, 1).unwrap();
        block[100..140].fill(lba as u8 + 1);
        initiator.write_blocks(lba, &block).unwrap();
    }
    initiator.synchronize_cache().unwrap();
    initiator.logout().unwrap();
    target.join().unwrap().unwrap();

    assert!(meter.payload_bytes_sent() < 48 * bs as u64 / 10);
    shutdown(engine, replica);
    assert!(verify_consistent(&*primary, &*replica_vol).unwrap());
}
