//! Micro-kernels: the primitive operations every PRINS write exercises.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prins_bench::crc32c_scalar;
use prins_block::{crc32c, crc32c_append_portable};
use prins_compress::{Codec, Lzss, Rle};
use prins_ec::MulTable;
use prins_iscsi::{Opcode, Pdu};
use prins_parity::{forward_parity, scan_nonzero, xor_in_place, xor_in_place_scalar, SparseCodec};
use prins_repl::{seal_batch_frame_into, seal_frame_into};
use rand::{RngExt, SeedableRng};

fn sample_images(bs: usize, change: f64) -> (Vec<u8>, Vec<u8>) {
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut old = vec![0u8; bs];
    rng.fill_bytes(&mut old);
    let mut new = old.clone();
    let changed = (((bs as f64) * change) as usize).min(bs);
    let at = if changed >= bs {
        0
    } else {
        rng.random_range(0..bs - changed)
    };
    for b in &mut new[at..at + changed] {
        *b = rng.random();
    }
    (old, new)
}

fn bench_xor(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/xor");
    for bs in [4096usize, 8192, 65536] {
        let (old, new) = sample_images(bs, 0.1);
        group.throughput(Throughput::Bytes(bs as u64));
        group.bench_with_input(BenchmarkId::from_parameter(bs), &bs, |b, _| {
            b.iter(|| forward_parity(&old, &new))
        });
    }
    group.finish();
}

fn bench_xor_in_place(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/xor_in_place");
    for bs in [4096usize, 8192, 65536] {
        let (old, new) = sample_images(bs, 0.1);
        group.throughput(Throughput::Bytes(bs as u64));
        group.bench_with_input(BenchmarkId::new("wide", bs), &bs, |b, _| {
            b.iter(|| {
                let mut dst = old.clone();
                xor_in_place(&mut dst, &new);
                dst
            })
        });
        group.bench_with_input(BenchmarkId::new("scalar", bs), &bs, |b, _| {
            b.iter(|| {
                let mut dst = old.clone();
                xor_in_place_scalar(&mut dst, &new);
                dst
            })
        });
    }
    group.finish();
}

fn bench_nonzero_scan(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/nonzero_scan");
    for change in [0.05, 0.20] {
        let (old, new) = sample_images(8192, change);
        let parity = forward_parity(&old, &new);
        group.throughput(Throughput::Bytes(8192));
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{:.0}%", change * 100.0)),
            &parity,
            |b, p| {
                b.iter(|| {
                    // Walk every nonzero run, the codec's scan pattern.
                    let mut runs = 0usize;
                    let mut at = 0usize;
                    while let Some(start) = scan_nonzero(p, at) {
                        let end = p[start..]
                            .iter()
                            .position(|&b| b == 0)
                            .map_or(p.len(), |i| start + i);
                        runs += 1;
                        at = end;
                    }
                    runs
                })
            },
        );
    }
    group.finish();
}

fn bench_sparse_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/sparse_codec");
    let codec = SparseCodec::default();
    for change in [0.05, 0.20] {
        let (old, new) = sample_images(8192, change);
        let parity = forward_parity(&old, &new);
        group.bench_with_input(
            BenchmarkId::new("encode", format!("{:.0}%", change * 100.0)),
            &parity,
            |b, p| b.iter(|| codec.encode(p).to_bytes()),
        );
        let bytes = codec.encode(&parity).to_bytes();
        group.bench_with_input(
            BenchmarkId::new("decode+apply", format!("{:.0}%", change * 100.0)),
            &bytes,
            |b, bytes| {
                b.iter(|| {
                    let sp = codec.decode(bytes, 8192).unwrap();
                    let mut block = old.clone();
                    sp.apply_to(&mut block);
                    block
                })
            },
        );
    }
    group.finish();
}

fn bench_compression(c: &mut Criterion) {
    let mut group = c.benchmark_group("kernels/compression");
    let (_, page) = sample_images(8192, 1.0);
    group.throughput(Throughput::Bytes(8192));
    group.bench_function("lzss/random_8KB", |b| {
        b.iter(|| Lzss::default().compress(&page))
    });
    let text: Vec<u8> = b"select ol_amount from order_line where ol_w_id = 3; "
        .iter()
        .cycle()
        .take(8192)
        .copied()
        .collect();
    group.bench_function("lzss/text_8KB", |b| {
        b.iter(|| Lzss::default().compress(&text))
    });
    group.bench_function("rle/text_8KB", |b| b.iter(|| Rle.compress(&text)));
    group.finish();
}

fn bench_crc32c(c: &mut Criterion) {
    // Width sweep of the integrity checksum, from a parity frame up to
    // a 64 KB batch frame: what `crc32c` dispatches to on this CPU (the
    // `crc32` instruction where there is one), the portable
    // slicing-by-8 fallback, and the bytewise baseline.
    let mut group = c.benchmark_group("kernels/crc32c");
    for len in [512usize, 4096, 8192, 65536] {
        let (_, data) = sample_images(len, 1.0);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("hardware", len), &data, |b, d| {
            b.iter(|| crc32c(d))
        });
        group.bench_with_input(BenchmarkId::new("portable", len), &data, |b, d| {
            b.iter(|| crc32c_append_portable(0, d))
        });
        group.bench_with_input(BenchmarkId::new("scalar", len), &data, |b, d| {
            b.iter(|| crc32c_scalar(d))
        });
    }
    group.finish();
}

fn bench_gf_mul(c: &mut Criterion) {
    // GF(256) coefficient multiply-accumulate, the erasure-coded
    // strip-update kernel: 64-byte-stride wide vs bytewise.
    let mut group = c.benchmark_group("kernels/gf_mul_xor");
    let table = MulTable::new(0x7d);
    for len in [64usize, 512, 4096, 65536] {
        let (src, mut dst) = sample_images(len, 1.0);
        group.throughput(Throughput::Bytes(len as u64));
        group.bench_with_input(BenchmarkId::new("wide", len), &src, |b, s| {
            b.iter(|| table.mul_xor_slice(s, &mut dst))
        });
        group.bench_with_input(BenchmarkId::new("scalar", len), &src, |b, s| {
            b.iter(|| table.mul_xor_slice_scalar(s, &mut dst))
        });
    }
    group.finish();
}

fn bench_seal(c: &mut Criterion) {
    // Batch-aware sealing: one CRC pass over a whole BatchFrame versus
    // sealing each 4 KB payload in its own envelope.
    let mut group = c.benchmark_group("kernels/seal");
    for frames in [8usize, 32] {
        let payloads: Vec<Vec<u8>> = (0..frames)
            .map(|i| {
                sample_images(4096, 1.0)
                    .1
                    .iter()
                    .map(|b| b ^ i as u8)
                    .collect()
            })
            .collect();
        let total: usize = payloads.iter().map(Vec::len).sum();
        group.throughput(Throughput::Bytes(total as u64));
        group.bench_with_input(
            BenchmarkId::new("batch", frames),
            &payloads,
            |b, payloads| {
                let mut out = Vec::with_capacity(total + 16 * frames);
                b.iter(|| {
                    out.clear();
                    seal_batch_frame_into(1, payloads, &mut out);
                    out.len()
                })
            },
        );
        group.bench_with_input(
            BenchmarkId::new("per_frame", frames),
            &payloads,
            |b, payloads| {
                let mut out = Vec::with_capacity(total + 16 * frames);
                b.iter(|| {
                    out.clear();
                    for p in payloads {
                        seal_frame_into(1, p, &mut out);
                    }
                    out.len()
                })
            },
        );
    }
    group.finish();
}

fn bench_pdu(c: &mut Criterion) {
    let pdu = Pdu::with_data(Opcode::ScsiCommand, vec![0xabu8; 8192]);
    let bytes = pdu.to_bytes();
    c.bench_function("kernels/pdu/encode_8KB", |b| b.iter(|| pdu.to_bytes()));
    c.bench_function("kernels/pdu/decode_8KB", |b| {
        b.iter(|| Pdu::from_bytes(&bytes).unwrap())
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(30);
    targets = bench_xor, bench_xor_in_place, bench_nonzero_scan, bench_sparse_codec,
        bench_crc32c, bench_gf_mul, bench_seal, bench_compression, bench_pdu
}
criterion_main!(benches);
