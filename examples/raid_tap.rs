//! PRINS riding the RAID parity tap — the paper's headline integration.
//!
//! A RAID-4/5 small write must compute `P' = A_new ⊕ A_old` anyway to
//! update its parity disk. PRINS taps that by-product: the tap callback
//! only *encodes* the parity it is handed and ships it, so the marginal
//! cost over plain RAID is the zero-run encoding of a mostly-zero block
//! — "in this case, the overhead is completely negligible".
//!
//! ```sh
//! cargo run --example raid_tap
//! ```

use std::sync::Arc;
use std::time::{Duration, Instant};

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_net::{channel_pair, LinkModel, Transport};
use prins_parity::SparseCodec;
use prins_raid::{RaidArray, RaidLevel};
use prins_repl::{put_parity, run_replica, Link, ACK};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Replica site.
    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let meter = Arc::clone(uplink.meter());
    let replica_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 96));
    let replica_volume2 = Arc::clone(&replica_volume);
    let replica = std::thread::spawn(move || run_replica(&*replica_volume2, &downlink));

    // Primary site: a 4-disk RAID-5 array (96 data blocks) whose parity
    // tap encodes and ships P' for every small write.
    let members: Vec<Arc<dyn BlockDevice>> = (0..4)
        .map(|_| Arc::new(MemDevice::new(BlockSize::kb8(), 32)) as Arc<dyn BlockDevice>)
        .collect();
    let raid = RaidArray::new(RaidLevel::Raid5, members)?;
    let codec = SparseCodec::default();
    let mut link = Link::new(0, Box::new(uplink));
    raid.set_parity_tap(Box::new(move |lba, parity_delta| {
        let sparse = codec.encode(parity_delta).to_bytes();
        link.send(|out| put_parity(out, lba, |out| out.extend_from_slice(&sparse)))
            .expect("replica link");
        link.recv_response(ACK, link.epoch(), Duration::from_secs(10), &mut |_| {})
            .expect("replica acknowledged");
    }));

    // The application writes through the array; PRINS replication is
    // an invisible side effect of RAID's own parity maintenance.
    let started = Instant::now();
    for i in 0..96u64 {
        let mut block = raid.read_block_vec(Lba(i))?;
        let at = (i as usize * 173) % 7500;
        block[at..at + 250].fill((i + 1) as u8);
        raid.write_block(Lba(i), &block)?;
    }
    let elapsed = started.elapsed();

    println!("96 RAID-5 small writes in {elapsed:.2?} (incl. synchronous replication)");
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
    assert!(raid.scrub()?.is_clean());
    raid.clear_parity_tap(); // drop the uplink; replica loop exits
    replica.join().expect("replica thread")?;
    for i in 0..96u64 {
        assert_eq!(
            raid.read_block_vec(Lba(i))?,
            replica_volume.read_block_vec(Lba(i))?
        );
    }
    println!("raid scrub clean and replica bit-identical ✓");
    Ok(())
}
