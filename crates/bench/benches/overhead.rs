//! The §4 overhead measurement: what the PRINS engine adds to a block
//! write, over a plain device and over RAID-5.
//!
//! The paper: "For all the experiments performed, the overhead is less
//! than 10% of traditional replications. … PRINS can leverage the parity
//! computation of RAID. In this case, the overhead is completely
//! negligible."
//!
//! Two pairs, each an engine with no replicas (capture, local write,
//! parity encode — stepped on the bench thread, so the encode is timed
//! too) against plain writes to the same kind of device. Over RAID-5 the
//! engine's capture is the array's own small-write read, handed down
//! with `write_block_over`.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, Criterion};
use prins_bench::overhead_experiment;
use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_core::EngineBuilder;
use prins_raid::{RaidArray, RaidLevel};
use prins_repl::ReplicationMode;

fn make_block(bs: usize, step: usize) -> Vec<u8> {
    let mut b = vec![0u8; bs];
    let at = (step * 97) % (bs - bs / 12);
    for x in &mut b[at..at + bs / 12] {
        *x = (step % 251) as u8;
    }
    b
}

fn raid5(bs: BlockSize) -> Arc<dyn BlockDevice> {
    let members: Vec<Arc<dyn BlockDevice>> = (0..4)
        .map(|_| Arc::new(MemDevice::new(bs, 64)) as Arc<dyn BlockDevice>)
        .collect();
    Arc::new(RaidArray::new(RaidLevel::Raid5, members).unwrap())
}

/// Times 8 KB writes straight to one device from `make`, then through
/// an engine with no replicas over a second one.
fn pair(c: &mut Criterion, name: &str, make: impl Fn() -> Arc<dyn BlockDevice>) {
    let n = BlockSize::kb8().bytes();
    let plain = make();
    let mut step = 0usize;
    c.bench_function(format!("overhead/{name}_write/8KB"), |b| {
        b.iter(|| {
            step += 1;
            plain.write_block(Lba((step % 64) as u64), &make_block(n, step))
        })
    });

    let engine = EngineBuilder::new(make())
        .mode(ReplicationMode::Prins)
        .manual_stepping(true)
        .build();
    let mut step = 0usize;
    c.bench_function(format!("overhead/engine_{name}/8KB"), |b| {
        b.iter(|| {
            step += 1;
            engine
                .write_block(Lba((step % 64) as u64), &make_block(n, step))
                .unwrap();
            engine.step()
        })
    });
    engine.shutdown().expect("engine shutdown");
}

fn bench(c: &mut Criterion) {
    println!(
        "{}",
        overhead_experiment(5_000, BlockSize::kb8()).expect("overhead experiment")
    );
    pair(c, "mem", || Arc::new(MemDevice::new(BlockSize::kb8(), 64)));
    pair(c, "raid5", || raid5(BlockSize::kb8()));
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench
}
criterion_main!(benches);
