//! Micro-kernels: the primitive operations every PRINS write exercises.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use prins_bench::{
    crc32c_scalar, gf_mul_xor_scalar, heavy_tail_writes, lzss_compress_reference,
    lzss_decompress_reference, xor_scalar,
};
use prins_block::{crc32c, crc32c_append_portable};
use prins_compress::{Codec, Lzss};
use prins_ec::MulTable;
use prins_iscsi::{Opcode, Pdu};
use prins_parity::{forward_parity, scan_nonzero, xor_in_place, SparseCodec};
use prins_policy::{AdaptiveReplicator, PolicyConfig};
use prins_repl::{seal_batch_frame_into, seal_frame_into, Replicator};
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
                xor_scalar(&mut dst, &new);
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

/// Word-sampled English-ish text — the generator the hostile mix's
/// text zone rewrites its documents with: long hash chains, medium
/// matches.
fn prose(bytes: usize, seed: u64) -> Vec<u8> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    prins_workloads::prose(&mut rng, bytes).into_bytes()
}

/// The three 8 KB write shapes of the hostile mix, as (old, new) pairs:
/// random over random, prose over prose, and ~3 % changed in short runs.
fn delta_shapes() -> [(&'static str, Vec<u8>, Vec<u8>); 3] {
    let (old, dense) = sample_images(8192, 1.0);
    let mut rng = rand::rngs::StdRng::seed_from_u64(3);
    let mut sparse = old.clone();
    for _ in 0..24 {
        let at = rng.random_range(0..8192 - 10);
        for b in &mut sparse[at..at + 10] {
            *b ^= rng.random_range(1..=255u8);
        }
    }
    [
        ("dense", old.clone(), dense),
        ("prose_over_prose", prose(8192, 1), prose(8192, 2)),
        ("changed_3%", old, sparse),
    ]
}

fn bench_lzss(c: &mut Criterion) {
    // The library's LZSS (per-thread match-finder scratch, word-wide
    // match extension and copies) against the table-per-call, byte-wise
    // kernels it replaced, on the inputs the replication path feeds
    // it: a text block, an incompressible block, and the sparse-parity
    // stream of a text rewrite (XOR noise — the heavy-tail trial).
    let mut group = c.benchmark_group("kernels/lzss");
    let codec = Lzss::default();
    let (window, chain) = (1 << 15, 32);
    let [(_, _, random), (_, old_text, text), _] = delta_shapes();
    let mut parity = Vec::new();
    SparseCodec::default().encode_delta_into(&old_text, &text, &mut parity);
    for (name, input) in [
        ("prose_8KB", &text),
        ("random_8KB", &random),
        ("sparse_parity_8KB", &parity),
    ] {
        group.throughput(Throughput::Bytes(input.len() as u64));
        group.bench_with_input(BenchmarkId::new("compress", name), input, |b, d| {
            b.iter(|| codec.compress(d))
        });
        group.bench_with_input(
            BenchmarkId::new("compress_reference", name),
            input,
            |b, d| b.iter(|| lzss_compress_reference(window, chain, d)),
        );
        let packed = codec.compress(input);
        group.bench_with_input(BenchmarkId::new("decompress", name), &packed, |b, p| {
            b.iter(|| codec.decompress(p, input.len()).unwrap())
        });
        group.bench_with_input(
            BenchmarkId::new("decompress_reference", name),
            &packed,
            |b, p| b.iter(|| lzss_decompress_reference(p, input.len())),
        );
    }
    group.finish();
}

fn bench_lzss_bounded(c: &mut Criterion) {
    // A trial that has to come in under a frame already held: prose
    // packs to ~30 %, so a limit of 1/4 of the input abandons late and
    // 1/2 never binds; noise is abandoned after about `limit` input
    // bytes; `inf` against `kernels/lzss compress` is what carrying a
    // limit that never binds costs.
    let mut group = c.benchmark_group("kernels/lzss_bounded");
    let codec = Lzss::default();
    let [(_, _, random), (_, _, text), _] = delta_shapes();
    let mut out = Vec::with_capacity(2 * 8192);
    for (name, input) in [("prose_8KB", &text), ("noise_8KB", &random)] {
        group.throughput(Throughput::Bytes(input.len() as u64));
        for (label, limit) in [
            ("1/4", input.len() / 4),
            ("1/2", input.len() / 2),
            ("inf", usize::MAX),
        ] {
            group.bench_function(BenchmarkId::new(name, label), |b| {
                b.iter(|| {
                    out.clear();
                    codec.compress_bounded(input, limit, &mut out).is_ok()
                })
            });
        }
    }
    group.finish();
}

fn bench_policy_chain(c: &mut Criterion) {
    // One heavy-tail write through the adaptive policy's trial chain,
    // region estimates settled by the warm-up iterations: the image
    // compress wins and the parity trial over XOR noise runs bounded by
    // it; plain parity wins and the image trial runs bounded by it.
    let mut group = c.benchmark_group("kernels/policy_chain");
    let mut out = Vec::with_capacity(2 * 8192);
    for (name, old, new) in heavy_tail_writes() {
        let policy = AdaptiveReplicator::new(PolicyConfig::default());
        group.bench_function(name, |b| {
            b.iter(|| {
                out.clear();
                policy.encode_write_into(prins_block::Lba(0), &old, &new, &mut out);
                out.len()
            })
        });
    }
    group.finish();
}

fn bench_delta_scan(c: &mut Criterion) {
    // The write path's one pass over the two images (`plan_delta`) and
    // the emit that reads its extents, per write shape.
    let mut group = c.benchmark_group("kernels/delta_scan");
    let codec = SparseCodec::default();
    group.throughput(Throughput::Bytes(8192));
    for (name, old, new) in delta_shapes() {
        group.bench_function(BenchmarkId::new("plan", name), |b| {
            b.iter(|| codec.plan_delta(&old, &new).wire_len())
        });
        let mut out = Vec::with_capacity(2 * 8192);
        group.bench_function(BenchmarkId::new("plan+emit", name), |b| {
            b.iter(|| {
                out.clear();
                codec.plan_delta(&old, &new).encode_into(&mut out);
                out.len()
            })
        });
    }
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
            b.iter(|| gf_mul_xor_scalar(&table, s, &mut dst))
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
        bench_crc32c, bench_gf_mul, bench_seal, bench_lzss, bench_lzss_bounded,
        bench_policy_chain, bench_delta_scan, bench_pdu
}
criterion_main!(benches);
