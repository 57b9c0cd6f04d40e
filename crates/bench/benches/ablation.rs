//! Ablation benches for the design choices DESIGN.md calls out:
//!
//! 1. sparse codec alone vs sparse codec + LZSS over the parity,
//! 2. PRINS win factor as a function of the per-write change ratio
//!    (the paper cites 5–20 % as the real-world band),
//! 3. sparse-codec `min_gap` sensitivity,
//! 4. link-model MTU/header sensitivity.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use prins_block::Lba;
use prins_net::LinkModel;
use prins_parity::{forward_parity, SparseCodec};
use prins_repl::{PrinsReplicator, Replicator, TraditionalReplicator};
use rand::{RngExt, SeedableRng};

fn images_with_change(bs: usize, change: f64, seed: u64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut old = vec![0u8; bs];
    rng.fill_bytes(&mut old);
    let mut new = old.clone();
    let changed = ((bs as f64) * change).max(1.0) as usize;
    // Two extents, like a row update + page header churn.
    let h = changed / 8;
    for b in &mut new[..h.max(1)] {
        *b = rng.random();
    }
    let second = changed - h;
    let lo = bs / 4;
    let hi = bs.saturating_sub(second);
    // At 100% change the second extent spans (almost) the whole block;
    // place it at 0 rather than sampling an empty range.
    let at = if hi <= lo {
        0
    } else {
        rng.random_range(lo..hi)
    };
    for b in &mut new[at..at + second] {
        *b = rng.random();
    }
    (old, new)
}

fn ablate_parity_compression(c: &mut Criterion) {
    println!("== Ablation: sparse codec vs sparse+LZSS (8KB block, payload bytes) ==");
    println!("{:>8}  {:>10}  {:>12}", "change", "prins", "prins+lzss");
    for change in [0.05, 0.10, 0.20] {
        let (old, new) = images_with_change(8192, change, 7);
        let plain = PrinsReplicator::new()
            .encode_write(Lba(0), &old, &new)
            .len();
        let lz = PrinsReplicator::with_parity_compression()
            .encode_write(Lba(0), &old, &new)
            .len();
        println!("{:>7.0}%  {plain:>10}  {lz:>12}", change * 100.0);
    }
    let (old, new) = images_with_change(8192, 0.10, 7);
    let mut group = c.benchmark_group("ablation/parity_compression");
    group.bench_function("sparse_only", |b| {
        b.iter(|| PrinsReplicator::new().encode_write(Lba(0), &old, &new))
    });
    group.bench_function("sparse_plus_lzss", |b| {
        b.iter(|| PrinsReplicator::with_parity_compression().encode_write(Lba(0), &old, &new))
    });
    group.finish();
}

fn ablate_change_ratio(c: &mut Criterion) {
    println!("\n== Ablation: PRINS win factor vs change ratio (8KB block) ==");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>8}",
        "change", "trad bytes", "prins bytes", "win"
    );
    let mut group = c.benchmark_group("ablation/change_ratio");
    for change in [0.01, 0.05, 0.10, 0.20, 0.50, 1.0] {
        let (old, new) = images_with_change(8192, change, 11);
        let trad = TraditionalReplicator.encode_write(Lba(0), &old, &new).len();
        let prins = PrinsReplicator::new()
            .encode_write(Lba(0), &old, &new)
            .len();
        println!(
            "{:>7.0}%  {trad:>12}  {prins:>12}  {:>7.1}x",
            change * 100.0,
            trad as f64 / prins.max(1) as f64
        );
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}%", change * 100.0)),
            &change,
            |b, _| b.iter(|| PrinsReplicator::new().encode_write(Lba(0), &old, &new)),
        );
    }
    group.finish();
}

fn ablate_min_gap(_c: &mut Criterion) {
    println!("\n== Ablation: sparse codec min_gap (8KB block, 10% changed, 16 extents) ==");
    println!("{:>8}  {:>10}  {:>10}", "min_gap", "bytes", "segments");
    // Many small extents: the regime where gap merging matters.
    let mut rng = rand::rngs::StdRng::seed_from_u64(23);
    let mut old = vec![0u8; 8192];
    rng.fill_bytes(&mut old);
    let mut new = old.clone();
    for _ in 0..16 {
        let at = rng.random_range(0..8192 - 52);
        for b in &mut new[at..at + 51] {
            *b = rng.random();
        }
    }
    let parity = forward_parity(&old, &new);
    for gap in [1usize, 2, 4, 8, 16, 64] {
        let sp = SparseCodec::new(gap).encode(&parity);
        println!(
            "{gap:>8}  {:>10}  {:>10}",
            sp.as_bytes().len(),
            sp.segments().count()
        );
    }
}

fn ablate_link_model(_c: &mut Criterion) {
    println!("\n== Ablation: packetization overhead by payload size (T1 link) ==");
    println!("{:>10}  {:>10}  {:>8}", "payload", "wire", "overhead");
    let link = LinkModel::t1();
    for payload in [64usize, 512, 1500, 4096, 8192, 65536] {
        let wire = link.wire_bytes(payload);
        println!(
            "{payload:>10}  {wire:>10}  {:>7.1}%",
            (wire as f64 / payload as f64 - 1.0) * 100.0
        );
    }
}

fn ablate_router_count(_c: &mut Criterion) {
    use prins_queueing::{Mva, NodalDelay};
    println!("\n== Ablation: response time vs router count (T1, population 50, 8KB) ==");
    println!(
        "{:>8}  {:>12}  {:>12}  {:>12}",
        "routers", "traditional", "compressed", "prins"
    );
    let link = NodalDelay::t1();
    for routers in [1usize, 2, 4, 8] {
        let mut row = format!("{routers:>8}");
        for bytes in [8192.0, 8192.0 / 2.2, 8192.0 / 100.0] {
            let s = link.service_time(bytes);
            let mva = Mva::new(0.1, vec![s; routers]);
            row.push_str(&format!("  {:>11.3}s", mva.solve(50).response_time));
        }
        println!("{row}");
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = ablate_parity_compression, ablate_change_ratio, ablate_min_gap, ablate_link_model, ablate_router_count
}
criterion_main!(benches);
