//! TPC-style random content generation.
//!
//! Implements the generators the TPC-C specification (clause 4.3.2)
//! defines: a-strings (alphanumeric), n-strings (numeric), the NURand
//! non-uniform distribution, and the 16-syllable customer last names —
//! plus an English-ish text generator for filesystem contents. Content
//! realism matters here: the compressed baseline's ratio and PRINS's
//! delta sizes both depend on it.

use rand::Rng;

/// TPC-C last-name syllables (clause 4.3.2.3).
const SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// Words used for file contents and DBMS comment fields.
const WORDS: [&str; 32] = [
    "the",
    "of",
    "replication",
    "storage",
    "parity",
    "block",
    "network",
    "system",
    "data",
    "write",
    "node",
    "remote",
    "disk",
    "performance",
    "traffic",
    "bandwidth",
    "internet",
    "protocol",
    "server",
    "database",
    "transaction",
    "customer",
    "order",
    "payment",
    "warehouse",
    "district",
    "stock",
    "item",
    "delivery",
    "history",
    "level",
    "queue",
];

/// Random-content helpers parameterized by any RNG.
///
/// The constant `C` values for NURand are fixed per run, as the spec
/// requires.
#[derive(Clone, Debug)]
pub(crate) struct TpccRand {
    c_last: u64,
    c_cust: u64,
    c_item: u64,
}

impl TpccRand {
    /// Draws the per-run NURand constants.
    pub(crate) fn new<R: Rng>(rng: &mut R) -> Self {
        Self {
            c_last: rng.random_range(0..256),
            c_cust: rng.random_range(0..1024),
            c_item: rng.random_range(0..8192),
        }
    }

    /// TPC-C NURand(A, x, y): non-uniform customer/item selection.
    pub(crate) fn nurand<R: Rng>(&self, rng: &mut R, a: u64, x: u64, y: u64) -> u64 {
        let c = match a {
            255 => self.c_last,
            1023 => self.c_cust,
            8191 => self.c_item,
            _ => 0,
        };
        (((rng.random_range(0..=a) | rng.random_range(x..=y)) + c) % (y - x + 1)) + x
    }

    /// Customer id 1..=n with the spec's skew.
    pub(crate) fn customer_id<R: Rng>(&self, rng: &mut R, n: u64) -> u64 {
        self.nurand(rng, 1023, 1, n.max(1))
    }

    /// Item id 1..=n with the spec's skew.
    pub(crate) fn item_id<R: Rng>(&self, rng: &mut R, n: u64) -> u64 {
        self.nurand(rng, 8191, 1, n.max(1))
    }

    /// The spec's 16-syllable last name for a number in 0..=999.
    pub(crate) fn last_name(num: u64) -> String {
        let n = num % 1000;
        format!(
            "{}{}{}",
            SYLLABLES[(n / 100) as usize],
            SYLLABLES[((n / 10) % 10) as usize],
            SYLLABLES[(n % 10) as usize]
        )
    }
}

/// Alphanumeric "a-string" of random length in `[lo, hi]`.
pub(crate) fn a_string<R: Rng>(rng: &mut R, lo: usize, hi: usize) -> String {
    let len = rng.random_range(lo..=hi.max(lo));
    (0..len)
        .map(|_| {
            let c = rng.random_range(0..62u8);
            match c {
                0..=25 => (b'a' + c) as char,
                26..=51 => (b'A' + c - 26) as char,
                _ => (b'0' + c - 52) as char,
            }
        })
        .collect()
}

/// Numeric "n-string" of exactly `len` digits.
pub(crate) fn n_string<R: Rng>(rng: &mut R, len: usize) -> String {
    (0..len)
        .map(|_| (b'0' + rng.random_range(0..10u8)) as char)
        .collect()
}

/// English-ish filler text of roughly `bytes` bytes (word-sampled, so
/// it compresses like real text — the paper notes the micro-benchmark's
/// text files compress better than database pages).
pub fn prose<R: Rng>(rng: &mut R, bytes: usize) -> String {
    let mut out = String::with_capacity(bytes + 16);
    while out.len() < bytes {
        out.push_str(WORDS[rng.random_range(0..WORDS.len())]);
        if rng.random_range(0..12u8) == 0 {
            out.push_str(".\n");
        } else {
            out.push(' ');
        }
    }
    out.truncate(bytes);
    out
}

/// TPC-C item/stock data field: 26..50 a-string chars, 10 % containing
/// the literal "ORIGINAL" (clause 4.3.3.1).
pub(crate) fn data_string<R: Rng>(rng: &mut R) -> String {
    let mut s = a_string(rng, 26, 50);
    if rng.random_range(0..10u8) == 0 {
        let at = rng.random_range(0..s.len().saturating_sub(8).max(1));
        s.replace_range(at..at + 8, "ORIGINAL");
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(1)
    }

    #[test]
    fn nurand_stays_in_range_and_is_skewed() {
        let mut r = rng();
        let tr = TpccRand::new(&mut r);
        let mut counts = vec![0u32; 101];
        for _ in 0..10_000 {
            let v = tr.nurand(&mut r, 255, 1, 100);
            assert!((1..=100).contains(&v));
            counts[v as usize] += 1;
        }
        // Non-uniform: the most popular value should be well above the
        // uniform expectation of 100.
        let max = counts.iter().max().unwrap();
        assert!(*max > 200, "nurand looks uniform: max bucket {max}");
    }

    #[test]
    fn last_names_follow_the_syllable_table() {
        assert_eq!(TpccRand::last_name(0), "BARBARBAR");
        assert_eq!(TpccRand::last_name(371), "PRICALLYOUGHT");
        assert_eq!(TpccRand::last_name(999), "EINGEINGEING");
        assert_eq!(TpccRand::last_name(1999), "EINGEINGEING");
    }

    #[test]
    fn string_generators_respect_bounds() {
        let mut r = rng();
        for _ in 0..100 {
            let s = a_string(&mut r, 14, 24);
            assert!((14..=24).contains(&s.len()));
            assert!(s.chars().all(|c| c.is_ascii_alphanumeric()));
        }
        assert_eq!(n_string(&mut r, 9).len(), 9);
        assert!(n_string(&mut r, 9).chars().all(|c| c.is_ascii_digit()));
    }

    #[test]
    fn prose_is_compressible_text() {
        use prins_compress::{Codec, Lzss};
        let mut r = rng();
        let text = prose(&mut r, 8192);
        assert_eq!(text.len(), 8192);
        let packed = Lzss::default().compress(text.as_bytes());
        assert!(
            packed.len() * 3 < text.len(),
            "prose should compress >3x, got {}/{}",
            packed.len(),
            text.len()
        );
    }

    #[test]
    fn data_string_sometimes_contains_original() {
        let mut r = rng();
        let hits = (0..1000)
            .filter(|_| data_string(&mut r).contains("ORIGINAL"))
            .count();
        assert!((50..200).contains(&hits), "got {hits} / 1000");
    }
}
