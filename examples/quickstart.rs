//! Quickstart: replicate block writes with PRINS and watch the traffic
//! savings.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use std::sync::Arc;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_net::{channel_pair, LinkModel, Transport};
use prins_repl::{run_replica, verify_consistent, ReplicationMode};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A primary and a replica "site", connected by a simulated T1 line.
    let (uplink, downlink) = channel_pair(LinkModel::t1());
    let meter = Arc::clone(uplink.meter());

    let replica_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 128));
    let replica_volume2 = Arc::clone(&replica_volume);
    let replica = std::thread::spawn(move || run_replica(&*replica_volume2, &downlink));

    let primary_volume = Arc::new(MemDevice::new(BlockSize::kb8(), 128));
    let engine = EngineBuilder::new(Arc::clone(&primary_volume) as Arc<dyn BlockDevice>)
        .mode(ReplicationMode::Prins)
        .replica(Box::new(uplink))
        .build();

    // An application updates a few hundred bytes of each 8 KB block —
    // the regime the PRINS paper measures (5-20% of a block changes).
    for i in 0..64u64 {
        let mut block = engine.read_block_vec(Lba(i))?;
        let at = (i as usize * 131) % 7000;
        block[at..at + 400].fill(i as u8 + 1);
        engine.write_block(Lba(i), &block)?;
    }
    engine.flush()?;

    let stats = engine.stats();
    println!("writes replicated:     {}", stats.writes_replicated);
    println!("application payload:   {} KB (64 writes x 8 KB)", 64 * 8);
    println!(
        "bytes on the wire:     {:.1} KB ({} packets)",
        meter.wire_bytes_sent() as f64 / 1024.0,
        meter.packets_sent()
    );
    println!(
        "traffic reduction:     {:.1}x",
        (64.0 * 8192.0) / meter.payload_bytes_sent() as f64
    );
    // PRINS "trades off high-speed computation for communication that
    // is costly": the XOR+encode work is microseconds, the T1 time it
    // saves is seconds.
    let saved_bytes = 64 * 8192 - meter.wire_bytes_sent();
    let t1_seconds_saved = saved_bytes as f64 / 154_400.0;
    println!(
        "prins compute cost:    {:?} of XOR+encode vs {:.1}s of T1 transmission saved",
        stats.overhead_time(),
        t1_seconds_saved
    );

    engine.shutdown()?;
    replica.join().expect("replica thread")?;
    assert!(verify_consistent(&*primary_volume, &*replica_volume)?);
    println!("replica verified bit-identical to primary ✓");
    Ok(())
}
