//! The three replication strategies compared throughout the paper.

use prins_block::Lba;
use prins_compress::Lzss;
use prins_parity::{DeltaPlan, SparseCodec};

use crate::wire::{put_compressed, put_full, put_parity, put_parity_compressed};

/// A replication strategy: turns an observed block write into a wire
/// payload.
///
/// Encoding is pure (no I/O), so the traffic experiments can run a
/// recorded write stream through several strategies and compare byte
/// counts directly — exactly what Figures 4–7 of the paper plot.
pub trait Replicator: Send + Sync {
    /// Appends the wire payload for the write of `new` over `old` at
    /// `lba` to `out` (earlier bytes are untouched) — on the hot path,
    /// straight into a pooled buffer.
    ///
    /// # Panics
    ///
    /// Implementations may panic if `old.len() != new.len()`; callers
    /// always pass images of one device block.
    fn encode_write_into(&self, lba: Lba, old: &[u8], new: &[u8], out: &mut Vec<u8>);

    /// [`encode_write_into`](Self::encode_write_into) a fresh buffer.
    fn encode_write(&self, lba: Lba, old: &[u8], new: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(new.len() + 16);
        self.encode_write_into(lba, old, new, &mut out);
        out
    }

    /// Short name for reports ("traditional", "compressed", "prins", …).
    fn name(&self) -> &'static str;
}

/// Traditional replication: ship the whole new block.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraditionalReplicator;

impl Replicator for TraditionalReplicator {
    fn encode_write_into(&self, lba: Lba, _old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        put_full(out, lba, new);
    }

    fn name(&self) -> &'static str {
        "traditional"
    }
}

/// Traditional replication with compression: ship the whole new block
/// through LZSS (the paper's zlib baseline).
#[derive(Clone, Copy, Debug, Default)]
pub struct CompressedReplicator {
    codec: Lzss,
}

impl CompressedReplicator {
    /// Uses a specific LZSS configuration.
    pub fn with_codec(codec: Lzss) -> Self {
        Self { codec }
    }
}

impl Replicator for CompressedReplicator {
    fn encode_write_into(&self, lba: Lba, _old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        put_compressed(out, lba, new.len(), |out| {
            self.codec.compress_into(new, out)
        });
    }

    fn name(&self) -> &'static str {
        "compressed"
    }
}

/// PRINS: ship the zero-run-encoded parity `P' = new ⊕ old`.
#[derive(Clone, Copy, Debug)]
pub struct PrinsReplicator {
    codec: SparseCodec,
    compress_parity: bool,
    lzss: Lzss,
}

impl PrinsReplicator {
    /// Standard PRINS: sparse parity only.
    pub fn new() -> Self {
        Self {
            codec: SparseCodec::default(),
            compress_parity: false,
            lzss: Lzss::fast(),
        }
    }

    /// Ablation variant: additionally LZSS-compress the encoded parity.
    /// The paper notes PRINS "makes compression trivial"; this quantifies
    /// the residual gain.
    pub fn with_parity_compression() -> Self {
        Self {
            compress_parity: true,
            ..Self::new()
        }
    }

    /// Uses a specific sparse codec (e.g. different merge gap).
    pub fn with_codec(codec: SparseCodec) -> Self {
        Self {
            codec,
            ..Self::new()
        }
    }

    /// The sparse codec in use.
    pub fn codec(&self) -> SparseCodec {
        self.codec
    }

    /// Encodes the write `plan` was scanned from, reporting whether the
    /// parity shipped LZSS-compressed (the adaptive policy learns a
    /// region's parity compressibility from it). The plan carries the
    /// one scan of the images this write pays for: the fallback
    /// decision and the emit both read it.
    ///
    /// For the bytes to be this strategy's, `plan` must come from a
    /// codec equal to [`codec`](Self::codec).
    pub fn encode_planned(&self, lba: Lba, plan: &mut DeltaPlan<'_>, out: &mut Vec<u8>) -> bool {
        // Guard: a pathological write that changes (nearly) the whole
        // block would make the encoded parity *larger* than the block
        // (offsets + lengths on top of the data). Fall back to a full
        // image — the replica accepts both forms, so PRINS is never
        // worse than traditional replication on any single write.
        let new = plan.new_image();
        if plan.wire_len() >= new.len() {
            put_full(out, lba, new);
            return false;
        }
        if !self.compress_parity {
            // Fused: the dense parity block and an intermediate sparse
            // buffer never exist.
            put_parity(out, lba, |out| plan.encode_into(out));
            return false;
        }
        // The ablation path: the compressor needs the sparse stream as
        // one slice (the plan's recycled buffer) and writes its trial
        // straight behind the header; a lost trial is cut off again.
        let sparse = plan.stream();
        let base = out.len();
        let mut packed = 0;
        put_parity_compressed(out, lba, sparse.len(), |out| {
            let at = out.len();
            self.lzss.compress_into(sparse, out);
            packed = out.len() - at;
        });
        let won = packed < sparse.len();
        if !won {
            out.truncate(base);
            put_parity(out, lba, |out| out.extend_from_slice(sparse));
        }
        won
    }
}

impl Default for PrinsReplicator {
    fn default() -> Self {
        Self::new()
    }
}

impl Replicator for PrinsReplicator {
    fn encode_write_into(&self, lba: Lba, old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        self.encode_planned(lba, &mut self.codec.plan_delta(old, new), out);
    }

    fn name(&self) -> &'static str {
        if self.compress_parity {
            "prins+lzss"
        } else {
            "prins"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Payload, PayloadBody};
    use prins_compress::Codec;
    use rand::{RngExt, SeedableRng};

    fn sample_write(change_bytes: usize) -> (Vec<u8>, Vec<u8>) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        let mut old = vec![0u8; 8192];
        rng.fill_bytes(&mut old);
        let mut new = old.clone();
        let start = rng.random_range(0..8192 - change_bytes);
        for b in &mut new[start..start + change_bytes] {
            *b = rng.random();
        }
        (old, new)
    }

    #[test]
    fn traditional_ships_full_block() {
        let (old, new) = sample_write(100);
        let payload = TraditionalReplicator.encode_write(Lba(1), &old, &new);
        assert!(payload.len() >= 8192);
        assert!(payload.len() < 8192 + 16); // small header only
    }

    #[test]
    fn prins_ships_roughly_the_changed_bytes() {
        let (old, new) = sample_write(400); // ~5% of the block
        let payload = PrinsReplicator::new().encode_write(Lba(1), &old, &new);
        assert!(payload.len() >= 400);
        assert!(payload.len() < 600, "got {}", payload.len());
    }

    #[test]
    fn prins_beats_compression_on_incompressible_blocks() {
        // Random block content (worst case for LZSS, typical for PRINS).
        let (old, new) = sample_write(800);
        let prins = PrinsReplicator::new()
            .encode_write(Lba(1), &old, &new)
            .len();
        let comp = CompressedReplicator::default()
            .encode_write(Lba(1), &old, &new)
            .len();
        assert!(
            prins * 5 < comp,
            "prins {prins} should be far below compressed {comp}"
        );
    }

    #[test]
    fn unchanged_write_costs_prins_almost_nothing() {
        let old = vec![3u8; 8192];
        let payload = PrinsReplicator::new().encode_write(Lba(9), &old, &old);
        assert!(payload.len() <= 8, "got {}", payload.len());
    }

    #[test]
    fn parity_compression_never_worse_than_plain_parity_plus_slack() {
        let (old, new) = sample_write(1000);
        let plain = PrinsReplicator::new()
            .encode_write(Lba(0), &old, &new)
            .len();
        let comp = PrinsReplicator::with_parity_compression()
            .encode_write(Lba(0), &old, &new)
            .len();
        // Falls back to plain parity when compression does not help.
        assert!(comp <= plain + 8, "comp {comp} vs plain {plain}");
    }

    #[test]
    fn full_block_change_falls_back_to_full_image() {
        // Every byte changes: encoded parity would exceed the block, so
        // PRINS ships the full image instead.
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut old = vec![0u8; 8192];
        rng.fill_bytes(&mut old);
        let new: Vec<u8> = old.iter().map(|b| b ^ 0x55).collect();
        let prins = PrinsReplicator::new().encode_write(Lba(3), &old, &new);
        let trad = TraditionalReplicator.encode_write(Lba(3), &old, &new);
        assert_eq!(prins.len(), trad.len(), "fallback must match traditional");
        // And the payload decodes as a full image at the right LBA.
        let payload = Payload::from_bytes(&prins).unwrap();
        assert!(matches!(payload.body, PayloadBody::Full(ref d) if d == &new));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            TraditionalReplicator.name(),
            CompressedReplicator::default().name(),
            PrinsReplicator::new().name(),
            PrinsReplicator::with_parity_compression().name(),
        ];
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), names.len());
    }

    /// The classic construction the fused encoders replaced, kept as
    /// the oracle: XOR the dense parity, zero-run encode it, fall back
    /// to a full image when that is no smaller, optionally LZSS the
    /// sparse stream — assembled as an owned [`Payload`].
    fn classic(name: &str, lba: Lba, old: &[u8], new: &[u8]) -> Payload {
        use prins_parity::{ErasureCodec, XorCodec};
        let full = PayloadBody::Full(new.to_vec());
        let body = match name {
            "traditional" => full,
            "compressed" => PayloadBody::Compressed {
                block_len: new.len(),
                data: Lzss::default().compress(new),
            },
            _ => {
                let parity = XorCodec::mirror().delta(old, new);
                let sparse = SparseCodec::default().encode(&parity).to_bytes();
                let packed = Lzss::fast().compress(&sparse);
                if sparse.len() >= new.len() {
                    full
                } else if name == "prins+lzss" && packed.len() < sparse.len() {
                    PayloadBody::ParityCompressed {
                        sparse_len: sparse.len(),
                        data: packed,
                    }
                } else {
                    PayloadBody::Parity(sparse)
                }
            }
        };
        Payload { lba, body }
    }

    #[test]
    fn encode_write_into_matches_the_classic_payload_on_fallback() {
        // Full-block change exercises the Full-image fallback branch of
        // the fused PRINS encoder.
        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        let new: Vec<u8> = old.iter().map(|b| b ^ 0x5a).collect();
        let r = PrinsReplicator::new();
        let mut fused = Vec::new();
        r.encode_write_into(Lba(17), &old, &new, &mut fused);
        assert_eq!(fused, classic("prins", Lba(17), &old, &new).to_bytes());
    }

    #[test]
    fn trait_objects_compose() {
        let reps: Vec<Box<dyn Replicator>> = vec![
            Box::new(TraditionalReplicator),
            Box::new(CompressedReplicator::default()),
            Box::new(PrinsReplicator::new()),
        ];
        let (old, new) = sample_write(64);
        for r in &reps {
            assert!(!r.encode_write(Lba(0), &old, &new).is_empty());
        }
    }

    proptest::proptest! {
        /// `encode_write_into` must write exactly the bytes of the owned
        /// [`Payload`] built the classic way, for every strategy and
        /// every write shape — and parse back to it: the pooled hot
        /// path may never change what goes on the wire.
        #[test]
        fn prop_encode_write_into_is_byte_identical(
            lba in proptest::prelude::any::<u32>(),
            old in proptest::collection::vec(proptest::prelude::any::<u8>(), 1..1024),
            flips in proptest::collection::vec(
                (proptest::prelude::any::<proptest::sample::Index>(), 1u8..), 0..24)) {
            let mut new = old.clone();
            for (idx, v) in &flips {
                let at = idx.index(new.len());
                new[at] ^= v;
            }
            let reps: Vec<Box<dyn Replicator>> = vec![
                Box::new(TraditionalReplicator),
                Box::new(CompressedReplicator::default()),
                Box::new(PrinsReplicator::new()),
                Box::new(PrinsReplicator::with_parity_compression()),
            ];
            for r in &reps {
                let want = classic(r.name(), Lba(lba as u64), &old, &new);
                let mut got = vec![0xA5u8]; // pre-existing byte must survive
                r.encode_write_into(Lba(lba as u64), &old, &new, &mut got);
                proptest::prop_assert_eq!(&got[..1], &[0xA5u8][..], "{}", r.name());
                proptest::prop_assert_eq!(&got[1..], &want.to_bytes()[..], "{}", r.name());
                proptest::prop_assert_eq!(&Payload::from_bytes(&got[1..]).unwrap(), &want);
            }
        }
    }
}
