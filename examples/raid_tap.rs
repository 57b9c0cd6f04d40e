//! PRINS over RAID-5 — the paper's headline integration.
//!
//! A RAID-4/5 small write must read `A_old` anyway to update its parity
//! disk (`P_new = A_new ⊕ A_old ⊕ P_old`). The PRINS engine reads the
//! same `A_old` to compute its replication parity `P' = A_new ⊕ A_old`,
//! then hands the image down with `write_block_over`, so the array
//! skips its own data-member read: replication over RAID costs one
//! old-image read per write, the one RAID needed anyway, plus encoding
//! a mostly-zero parity — "in this case, the overhead is completely
//! negligible".
//!
//! ```sh
//! cargo run --example raid_tap
//! ```

use std::sync::Arc;
use std::time::Instant;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_net::{channel_pair, LinkModel, Transport};
use prins_raid::{RaidArray, RaidLevel};
use prins_repl::{run_replica, ReplicationMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Replica site.
    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let meter = Arc::clone(uplink.meter());
    let replica_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 96));
    let replica_volume2 = Arc::clone(&replica_volume);
    let replica = std::thread::spawn(move || run_replica(&*replica_volume2, &downlink));

    // Primary site: a PRINS engine over a 4-disk RAID-5 array (96 data
    // blocks).
    let members: Vec<Arc<dyn BlockDevice>> = (0..4)
        .map(|_| Arc::new(MemDevice::new(BlockSize::kb8(), 32)) as Arc<dyn BlockDevice>)
        .collect();
    let raid = Arc::new(RaidArray::new(RaidLevel::Raid5, members)?);
    let engine = EngineBuilder::new(Arc::clone(&raid) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .replica(Box::new(uplink))
        .build();

    // The application writes through the engine; the array's parity
    // maintenance and PRINS replication share one old-image read.
    let started = Instant::now();
    for i in 0..96u64 {
        let mut block = engine.read_block_vec(Lba(i))?;
        let at = (i as usize * 173) % 7500;
        block[at..at + 250].fill((i + 1) as u8);
        engine.write_block(Lba(i), &block)?;
    }
    engine.flush()?;
    let elapsed = started.elapsed();

    println!("96 RAID-5 small writes in {elapsed:.2?} (incl. replication barrier)");
    println!(
        "replicated payload:   {:.1} KB for {} KB written",
        meter.payload_bytes_sent() as f64 / 1024.0,
        96 * 8
    );
    println!(
        "traffic reduction:    {:.1}x",
        (96.0 * 8192.0) / meter.payload_bytes_sent() as f64
    );

    // Verify: the array's parity is intact and the replica matches.
    engine.shutdown()?; // drops the uplink; the replica loop exits
    replica.join().expect("replica thread")?;
    assert!(raid.scrub()?.is_clean());
    for i in 0..96u64 {
        assert_eq!(
            raid.read_block_vec(Lba(i))?,
            replica_volume.read_block_vec(Lba(i))?
        );
    }
    println!("raid scrub clean and replica bit-identical ✓");
    Ok(())
}
