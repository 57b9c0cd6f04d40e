//! Cheap compressibility probe: estimates the LZSS-compressed size of a
//! buffer as a per-mille ratio without running the compressor and
//! without allocating.
//!
//! LZSS gains come from repeated substrings of at least `MIN_MATCH = 4`
//! bytes. The probe samples up to 64 four-byte grams at even stride and
//! counts how many re-hash into a tiny direct-mapped table already
//! holding the same fingerprint — a proxy for the fraction of the input
//! a greedy matcher would cover with back-references. It is
//! deliberately coarse: the estimate only *seeds* a region's EWMA, and
//! exact ratios observed from real compression runs correct it within a
//! handful of writes.

/// Grams sampled per probe; also the direct-mapped table size.
const PROBE_SLOTS: usize = 64;

/// Estimated compressed/raw size ratio in per-mille (1000 = same size).
///
/// * all-repeated content → well under 500‰;
/// * English-like text → roughly 550–800‰;
/// * random bytes → over 1000‰ (LZSS token overhead *expands*
///   incompressible input, and the estimate reports that honestly so
///   the threshold comparison rejects compression).
///
/// Stack-only: one `[u16; 64]` table, no heap traffic — safe to call on
/// the ≤2-allocations-per-write hot path.
pub(crate) fn probe_compressibility_pm(data: &[u8]) -> u32 {
    if data.len() < 8 {
        // Too short for LZSS to ever win; report incompressible.
        return 1020;
    }
    let samples = PROBE_SLOTS.min(data.len() - 3);
    let stride = (data.len() - 3) / samples;
    let mut table = [0u16; PROBE_SLOTS];
    let mut repeats = 0u32;
    for i in 0..samples {
        let at = i * stride;
        let g = u32::from_le_bytes([data[at], data[at + 1], data[at + 2], data[at + 3]]);
        // Fingerprint is forced odd so an empty slot (0) never matches.
        let h = ((g.wrapping_mul(0x9E37_79B1) >> 16) as u16) | 1;
        let slot = (h as usize) & (PROBE_SLOTS - 1);
        if table[slot] == h {
            repeats += 1;
        } else {
            table[slot] = h;
        }
    }
    // Map repeat fraction to an estimated ratio: zero repeats → 1020‰
    // (expansion), every gram repeated → ~120‰. Clamped away from the
    // extremes because the probe is a seed, not a verdict.
    (1020u32.saturating_sub(repeats * 900 / samples as u32)).clamp(100, 1020)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[test]
    fn constant_blocks_read_highly_compressible() {
        let pm = probe_compressibility_pm(&[7u8; 4096]);
        assert!(pm < 400, "constant block probed at {pm}‰");
    }

    #[test]
    fn random_blocks_read_incompressible() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        let mut data = vec![0u8; 4096];
        rng.fill_bytes(&mut data);
        let pm = probe_compressibility_pm(&data);
        assert!(pm >= 990, "random block probed at {pm}‰");
    }

    #[test]
    fn repetitive_text_reads_compressible() {
        let text = "the quick brown fox jumps over the lazy dog; "
            .repeat(100)
            .into_bytes();
        let pm = probe_compressibility_pm(&text);
        assert!(pm < 800, "repeated text probed at {pm}‰");
    }

    #[test]
    fn short_inputs_are_incompressible_by_definition() {
        assert_eq!(probe_compressibility_pm(&[]), 1020);
        assert_eq!(probe_compressibility_pm(&[1, 2, 3, 4, 5]), 1020);
    }

    #[test]
    fn probe_orders_random_below_text_below_constant() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let mut random = vec![0u8; 2048];
        rng.fill_bytes(&mut random);
        let text = "SELECT id, qty FROM stock WHERE w_id = 3;\n"
            .repeat(50)
            .into_bytes();
        let constant = vec![0u8; 2048];
        let (r, t, c) = (
            probe_compressibility_pm(&random),
            probe_compressibility_pm(&text),
            probe_compressibility_pm(&constant),
        );
        assert!(c < t && t < r, "constant {c} < text {t} < random {r}");
    }
}
