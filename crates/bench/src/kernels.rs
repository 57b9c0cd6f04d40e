//! The reference kernels (byte-wise XOR, GF(256) multiply-accumulate
//! and CRC32C, the table-per-call LZSS) the criterion series in
//! `benches/kernels.rs` compare the library's against, and the
//! heavy-tail writes those series encode. The tests below check each
//! reference against the library kernel it stands in for.

use prins_ec::MulTable;
use prins_parity::{decode_varint, encode_varint};

/// Byte-at-a-time XOR: the baseline of the criterion
/// `kernels/xor_in_place` series against [`prins_parity::xor_in_place`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn xor_scalar(dst: &mut [u8], src: &[u8]) {
    assert_eq!(dst.len(), src.len(), "xor operands must be equal length");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= s;
    }
}

/// Byte-at-a-time `dst ^= c · src` over one product-row lookup per
/// byte: the baseline of the criterion `kernels/gf_mul_xor` series
/// against [`MulTable::mul_xor_slice`].
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn gf_mul_xor_scalar(table: &MulTable, src: &[u8], dst: &mut [u8]) {
    assert_eq!(src.len(), dst.len(), "mul_xor_slice length mismatch");
    for (d, s) in dst.iter_mut().zip(src) {
        *d ^= table.mul(*s);
    }
}

/// Byte-at-a-time CRC32C: the baseline of this experiment and of the
/// criterion `kernels/crc32c` series, one table lookup per byte.
pub fn crc32c_scalar(bytes: &[u8]) -> u32 {
    crc32c_scalar_append(0, bytes)
}

/// Continues [`crc32c_scalar`] over more bytes, like
/// [`prins_block::crc32c_append`].
fn crc32c_scalar_append(crc: u32, bytes: &[u8]) -> u32 {
    const TABLE: [u32; 256] = {
        let mut table = [0u32; 256];
        let mut i = 0;
        while i < 256 {
            let mut crc = i as u32;
            let mut bit = 0;
            while bit < 8 {
                crc = (crc >> 1) ^ (0x82F6_3B78 * (crc & 1));
                bit += 1;
            }
            table[i] = crc;
            i += 1;
        }
        table
    };
    let mut state = !crc;
    for &b in bytes {
        state = (state >> 8) ^ TABLE[((state ^ b as u32) & 0xff) as usize];
    }
    !state
}

/// The LZSS compressor as it stood before the word-wide rewrite — the
/// baseline of the criterion `kernels/lzss` series: two `-1`-filled
/// 32 768-entry `i64` tables allocated per call, matches extended one
/// byte at a time. Emits the library's stream byte for byte for
/// `Lzss::new(window, max_chain)`.
pub fn lzss_compress_reference(window: usize, max_chain: usize, data: &[u8]) -> Vec<u8> {
    const MIN_MATCH: usize = 4;
    const MAX_MATCH: usize = 1 << 16;
    const HASH_BITS: usize = 15;
    fn hash(data: &[u8]) -> usize {
        let v = u32::from_le_bytes([data[0], data[1], data[2], data[3]]);
        (v.wrapping_mul(0x9E37_79B1) >> (32 - HASH_BITS)) as usize
    }
    fn put_literals(out: &mut Vec<u8>, run: &[u8]) {
        for piece in run.chunks(1 << 20) {
            encode_varint(out, (piece.len() as u64) << 1);
            out.extend_from_slice(piece);
        }
    }
    let find_match = |pos: usize, head: &[i64], prev: &[i64]| -> Option<(usize, usize)> {
        if pos + MIN_MATCH > data.len() {
            return None;
        }
        let mut cand = head[hash(&data[pos..])];
        let min_pos = pos.saturating_sub(window) as i64;
        let max_len = (data.len() - pos).min(MAX_MATCH);
        let mut best_len = MIN_MATCH - 1;
        let mut best_dist = 0usize;
        let mut chain = 0usize;
        while cand >= min_pos && cand >= 0 && chain < max_chain {
            let c = cand as usize;
            if data[c + best_len] == data[pos + best_len.min(max_len - 1)] {
                let mut len = 0usize;
                while len < max_len && data[c + len] == data[pos + len] {
                    len += 1;
                }
                if len > best_len {
                    best_len = len;
                    best_dist = pos - c;
                    if len == max_len {
                        break;
                    }
                }
            }
            let next = prev[c % window];
            if next >= cand {
                break;
            }
            cand = next;
            chain += 1;
        }
        (best_len >= MIN_MATCH).then_some((best_len, best_dist))
    };

    let mut out = Vec::with_capacity(data.len() / 2 + 16);
    let mut head = vec![-1i64; 1 << HASH_BITS];
    let mut prev = vec![-1i64; window];
    let mut literal_start = 0usize;
    let mut pos = 0usize;
    while pos < data.len() {
        let found = find_match(pos, &head, &prev);
        if let Some((len, dist)) = found {
            put_literals(&mut out, &data[literal_start..pos]);
            encode_varint(&mut out, ((len as u64) << 1) | 1);
            encode_varint(&mut out, dist as u64);
        }
        let end = pos + found.map_or(1, |(len, _)| len);
        while pos < end {
            if pos + MIN_MATCH <= data.len() {
                let h = hash(&data[pos..]);
                prev[pos % window] = head[h];
                head[h] = pos as i64;
            }
            pos += 1;
        }
        if found.is_some() {
            literal_start = pos;
        }
    }
    put_literals(&mut out, &data[literal_start..]);
    out
}

/// The LZSS decoder as it stood before `extend_from_within`: match
/// copies pushed one byte at a time. For streams the compressor wrote —
/// it trusts its input.
pub fn lzss_decompress_reference(data: &[u8], expected_len: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(expected_len);
    let mut rest = data;
    let varint = |rest: &mut &[u8]| {
        let (value, used) = decode_varint(rest).expect("well-formed stream");
        *rest = &rest[used..];
        value as usize
    };
    while !rest.is_empty() {
        let tok = varint(&mut rest);
        let len = tok >> 1;
        if tok & 1 == 0 {
            out.extend_from_slice(&rest[..len]);
            rest = &rest[len..];
        } else {
            let start = out.len() - varint(&mut rest);
            for i in 0..len {
                let b = out[start + i];
                out.push(b);
            }
        }
    }
    out
}

/// The two 8 KB heavy-tail writes of the criterion
/// `kernels/policy_chain` series, as `(name, old, new)`: both have a
/// parity wire between `PolicyConfig::exact_trial_len` and the block,
/// so the adaptive policy runs its whole trial chain on them, and each
/// has the opposite winner.
///
/// * `prose_over_prose` — a text block rewritten with other text: the
///   parity is XOR noise a few bytes under the block, the image packs
///   to under a third. The image compress wins; the parity-LZSS trial
///   runs bounded by it.
/// * `noise_2KB_over_random` — 2 KB of an incompressible block
///   replaced: plain parity wins; the image trial runs bounded by it.
pub fn heavy_tail_writes() -> [(&'static str, Vec<u8>, Vec<u8>); 2] {
    use rand::SeedableRng;
    let prose = |seed| {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        prins_workloads::prose(&mut rng, 8192).into_bytes()
    };
    let mut rng = rand::rngs::StdRng::seed_from_u64(1);
    let mut random = vec![0u8; 8192];
    rand::Rng::fill_bytes(&mut rng, &mut random);
    let mut patched = random.clone();
    rand::Rng::fill_bytes(&mut rng, &mut patched[3000..3000 + 2048]);
    [
        ("prose_over_prose", prose(1), prose(2)),
        ("noise_2KB_over_random", random, patched),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_baseline_agrees_with_the_library_kernel() {
        let data: Vec<u8> = (0u8..=255).cycle().take(1000).collect();
        for split in [0, 1, 9, 500, 1000] {
            let (a, b) = data.split_at(split);
            assert_eq!(
                crc32c_scalar_append(crc32c_scalar(a), b),
                prins_block::crc32c(&data)
            );
        }
    }

    #[test]
    fn xor_and_gf_baselines_agree_with_the_library_kernels() {
        let src: Vec<u8> = (0..333u32).map(|i| (i * 37 % 251) as u8).collect();
        let base: Vec<u8> = (0..333u32).map(|i| (i * 13 + 5) as u8).collect();
        let (mut wide, mut scalar) = (base.clone(), base.clone());
        prins_parity::xor_in_place(&mut wide, &src);
        xor_scalar(&mut scalar, &src);
        assert_eq!(wide, scalar);
        let table = MulTable::new(0x7d);
        let (mut wide, mut scalar) = (base.clone(), base);
        table.mul_xor_slice(&src, &mut wide);
        gf_mul_xor_scalar(&table, &src, &mut scalar);
        assert_eq!(wide, scalar);
    }

    #[test]
    fn lzss_references_agree_with_the_library_kernels() {
        use prins_compress::{Codec, Lzss};
        let mut data: Vec<u8> = b"select ol_amount from order_line where ol_w_id = 3; "
            .iter()
            .cycle()
            .take(5000)
            .copied()
            .collect();
        data.extend((0..3000u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 24) as u8));
        for (window, chain) in [(1 << 15, 32), (1 << 15, 8), (256, 512)] {
            let packed = lzss_compress_reference(window, chain, &data);
            assert_eq!(packed, Lzss::new(window, chain).compress(&data));
            assert_eq!(lzss_decompress_reference(&packed, data.len()), data);
        }
    }

    #[test]
    fn heavy_tail_writes_run_the_whole_chain_with_opposite_winners() {
        use prins_policy::{AdaptiveReplicator, PolicyConfig};
        use prins_repl::Replicator;
        let cfg = PolicyConfig::default();
        let [prose, noise] = heavy_tail_writes();
        for ((name, old, new), compressed_wins) in [(prose, true), (noise, false)] {
            let wire = prins_parity::SparseCodec::default()
                .plan_delta(&old, &new)
                .wire_len();
            assert!(
                (cfg.exact_trial_len..new.len()).contains(&wire),
                "{name}: wire {wire} is not heavy-tail"
            );
            let policy = AdaptiveReplicator::new(cfg);
            for _ in 0..4 {
                policy.encode_write(prins_block::Lba(0), &old, &new);
            }
            let c = policy.counters();
            // The parity family's pick is booked as `parity+lzss` here
            // even where plain parity is what ships: the chain ran.
            let picks = (c.pick_compressed.get(), c.pick_parity_lzss.get());
            let want = if compressed_wins { (4, 0) } else { (0, 4) };
            assert_eq!(picks, want, "{name}");
            let shipped = c.shipped_bytes.get() / 4;
            assert!(
                if compressed_wins {
                    shipped < 3000
                } else {
                    shipped == (wire + 2) as u64
                },
                "{name}: {shipped} bytes a write"
            );
        }
    }
}
