//! Erasure-coding kernels: GF(256) strip scaling, systematic
//! Reed–Solomon encode, erasure reconstruction, and the coefficient
//! delta RMW the parity owners run per write.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prins_parity::{gf, ReedSolomon};
use rand::{RngExt, SeedableRng};

fn sample_strips(k: usize, bs: usize) -> Vec<Vec<u8>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(7);
    (0..k)
        .map(|_| {
            let mut s = vec![0u8; bs];
            rng.fill_bytes(&mut s);
            s
        })
        .collect()
}

fn bench_gf_mul_slice(c: &mut Criterion) {
    let mut group = c.benchmark_group("ec/gf_mul_xor_slice");
    for bs in [4096usize, 8192, 65536] {
        let strips = sample_strips(2, bs);
        group.throughput(Throughput::Bytes(bs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| {
                let mut acc = strips[0].clone();
                gf::mul_xor_slice(0x53, &strips[1], &mut acc);
                acc
            })
        });
    }
    group.finish();
}

fn bench_rs_encode(c: &mut Criterion) {
    let codec = ReedSolomon::k4m2();
    let mut group = c.benchmark_group("ec/rs_encode_k4m2");
    for bs in [4096usize, 8192] {
        let strips = sample_strips(4, bs);
        let refs: Vec<&[u8]> = strips.iter().map(Vec::as_slice).collect();
        group.throughput(Throughput::Bytes(4 * bs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| codec.encode(&refs).unwrap())
        });
    }
    group.finish();
}

fn bench_rs_reconstruct(c: &mut Criterion) {
    let codec = ReedSolomon::k4m2();
    let mut group = c.benchmark_group("ec/rs_reconstruct_two_erasures");
    for bs in [4096usize, 8192] {
        let data = sample_strips(4, bs);
        let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
        let parity = codec.encode(&refs).unwrap();
        let full: Vec<Vec<u8>> = data.iter().chain(parity.iter()).cloned().collect();
        group.throughput(Throughput::Bytes(4 * bs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| {
                let mut strips: Vec<Option<Vec<u8>>> = full.iter().cloned().map(Some).collect();
                strips[1] = None;
                strips[5] = None;
                codec.reconstruct(&mut strips).unwrap();
                strips
            })
        });
    }
    group.finish();
}

fn bench_parity_delta_rmw(c: &mut Criterion) {
    let codec = ReedSolomon::k4m2();
    let mut group = c.benchmark_group("ec/parity_delta_rmw");
    for bs in [4096usize, 8192] {
        let strips = sample_strips(2, bs);
        let coeff = codec.coefficient(1, 2);
        group.throughput(Throughput::Bytes(bs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| {
                let mut base = strips[0].clone();
                gf::mul_xor_slice(coeff, &strips[1], &mut base);
                base
            })
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_gf_mul_slice,
    bench_rs_encode,
    bench_rs_reconstruct,
    bench_parity_delta_rmw
);
criterion_main!(benches);
