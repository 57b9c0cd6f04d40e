//! The three replication strategies compared throughout the paper.

use prins_block::Lba;
use prins_compress::{Abandoned, Lzss};
use prins_parity::{DeltaPlan, SparseCodec};

use crate::wire::{head_len, put_compressed, put_full, put_parity, put_parity_compressed};

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

    /// Encodes the write `plan` was scanned from, if the frame comes to
    /// at most `at_most` bytes (`usize::MAX`: always), reporting whether
    /// the parity shipped LZSS-compressed — the adaptive policy learns
    /// a region's parity compressibility from it, and passes the length
    /// of a frame it already holds so a trial that cannot beat it stops
    /// early. The plan carries the one scan of the images this write
    /// pays for: the fallback decision and the emit both read it.
    ///
    /// # Errors
    ///
    /// [`Abandoned`] when this strategy's frame for the write is longer
    /// than `at_most`: `out` is left as it was, and the error is the
    /// LZSS trial's (all zero if none ran).
    pub fn encode_planned(
        &self,
        lba: Lba,
        plan: &mut DeltaPlan<'_>,
        at_most: usize,
        out: &mut Vec<u8>,
    ) -> Result<bool, Abandoned> {
        // Guard: a pathological write that changes (nearly) the whole
        // block would make the encoded parity *larger* than the block
        // (offsets + lengths on top of the data). Fall back to a full
        // image — the replica accepts both forms, so PRINS is never
        // worse than traditional replication on any single write.
        let new = plan.new_image();
        let wire = plan.wire_len();
        let plain_fits = head_len(lba) + wire.min(new.len()) <= at_most;
        if wire >= new.len() || !self.compress_parity {
            if !plain_fits {
                return Err(Abandoned::default());
            }
            if wire >= new.len() {
                put_full(out, lba, new);
            } else {
                // Fused: the dense parity block and an intermediate
                // sparse buffer never exist.
                put_parity(out, lba, |out| plan.encode_into(out));
            }
            return Ok(false);
        }
        // The ablation path: the compressor needs the sparse stream as
        // one slice (the plan's recycled buffer) and writes its trial
        // straight behind the header; a lost trial is cut off again.
        // `packed < wire` decides LZSS against plain parity, so while
        // the plain frame is an option the trial runs to that point;
        // once it is not, only an LZSS frame inside `at_most` matters.
        let sparse = plan.stream();
        debug_assert_eq!(sparse.len(), wire, "the plan's stream is its wire length");
        let base = out.len();
        let mut trial = Err(Abandoned::default());
        put_parity_compressed(out, lba, wire, |out| {
            let limit = if plain_fits {
                wire.checked_sub(1)
            } else {
                at_most.checked_sub(out.len() - base)
            };
            if let Some(limit) = limit {
                trial = self.lzss.compress_bounded(sparse, limit, out);
            }
        });
        match trial {
            Ok(_) if out.len() - base <= at_most => Ok(true),
            // Won against plain parity by less than the length prefix
            // costs: the frame is the LZSS one, and it is too long.
            Ok(packed) => {
                out.truncate(base);
                Err(Abandoned {
                    consumed: wire,
                    produced: packed,
                })
            }
            Err(_) if plain_fits => {
                out.truncate(base);
                put_parity(out, lba, |out| out.extend_from_slice(sparse));
                Ok(false)
            }
            Err(abandoned) => {
                out.truncate(base);
                Err(abandoned)
            }
        }
    }
}

impl Default for PrinsReplicator {
    fn default() -> Self {
        Self::new()
    }
}

impl Replicator for PrinsReplicator {
    fn encode_write_into(&self, lba: Lba, old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        self.encode_planned(lba, &mut self.codec.plan_delta(old, new), usize::MAX, out)
            .expect("every frame fits usize::MAX");
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
        let full = PayloadBody::Full(new.to_vec());
        let body = match name {
            "traditional" => full,
            "compressed" => PayloadBody::Compressed {
                block_len: new.len(),
                data: Lzss::default().compress(new),
            },
            _ => {
                let parity = prins_parity::xor_bytes(old, new);
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

    /// Under a budget `encode_planned` appends exactly the frame the
    /// unbounded call would — when that frame fits — and otherwise
    /// leaves `out` alone: wherever the LZSS trial is cut short, the
    /// answer is the one running it to the end would have given.
    #[test]
    fn encode_planned_under_a_budget_is_the_unbounded_frame_or_nothing() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(31);
        let text = |shift: usize| -> Vec<u8> {
            b"insert into order_line values (7, 3, 118, 'pending'); "
                .iter()
                .cycle()
                .skip(shift)
                .take(2048)
                .copied()
                .collect()
        };
        let mut noise = vec![0u8; 2048];
        rng.fill_bytes(&mut noise);
        let mut patched = noise.clone();
        patched[100..700].iter_mut().for_each(|b| *b ^= 0x3c);
        let mut flipped = noise.clone();
        flipped[9] ^= 1;
        let inverted: Vec<u8> = noise.iter().map(|b| !b).collect();
        let writes = [
            ("LZSS parity wins", vec![0u8; 2048], text(0)),
            ("LZSS parity wins narrowly or loses", text(0), text(7)),
            ("plain parity, incompressible", noise.clone(), patched),
            ("tiny parity", noise.clone(), flipped),
            ("parity no smaller than the block", noise.clone(), inverted),
            ("nothing changed", noise.clone(), noise.clone()),
        ];
        let codec = SparseCodec::default();
        for r in [
            PrinsReplicator::with_parity_compression(),
            PrinsReplicator::new(),
        ] {
            for (what, old, new) in &writes {
                let whole = r.encode_write(Lba(300), old, new);
                let wire = codec.plan_delta(old, new).wire_len();
                let lzss_won = whole[0] == crate::wire::PARITY_COMPRESSED_TAG;
                // Around every length the decision turns on.
                let turning = [0, 3, wire, head_len(Lba(300)) + wire, whole.len()];
                for at_most in turning
                    .iter()
                    .flat_map(|&n| n.saturating_sub(3)..=n + 3)
                    .chain([whole.len() / 2, usize::MAX])
                {
                    let mut out = vec![0xA5u8];
                    let mut plan = codec.plan_delta(old, new);
                    let got = r.encode_planned(Lba(300), &mut plan, at_most, &mut out);
                    if whole.len() <= at_most {
                        assert_eq!(got, Ok(lzss_won), "{what}, {} at {at_most}", r.name());
                        assert_eq!(&out[1..], &whole[..], "{what}, {} at {at_most}", r.name());
                    } else {
                        let gave_up = got.expect_err(what);
                        assert_eq!(out, [0xA5], "{what}, {} at {at_most}", r.name());
                        assert!(gave_up.consumed <= wire);
                    }
                }
            }
        }
    }

    /// `packed < wire` decides LZSS against plain parity, so an LZSS
    /// win by one byte ships a frame one byte *longer* than plain
    /// parity (the length prefix costs two). A budget of exactly the
    /// plain frame must then report "too long" — not quietly hand back
    /// the plain frame the unbounded encoder would not have chosen.
    #[test]
    fn a_win_smaller_than_its_length_prefix_is_still_the_lzss_frame() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(32);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        let r = PrinsReplicator::with_parity_compression();
        let codec = SparseCodec::default();
        let mut seen = 0;
        // A 600-byte noise parity whose tail repeats its head for
        // `repeat` bytes: one match, worth a few bytes either way.
        for repeat in 4..24usize {
            let mut delta = vec![0u8; 600];
            rng.fill_bytes(&mut delta);
            delta.iter_mut().for_each(|b| *b |= 1);
            delta.copy_within(..repeat, 600 - repeat);
            let mut new = old.clone();
            new[1000..1600]
                .iter_mut()
                .zip(&delta)
                .for_each(|(n, d)| *n ^= d);
            let whole = r.encode_write(Lba(5), &old, &new);
            let plain = head_len(Lba(5)) + codec.plan_delta(&old, &new).wire_len();
            if whole.len() != plain + 1 {
                continue;
            }
            seen += 1;
            assert_eq!(whole[0], crate::wire::PARITY_COMPRESSED_TAG);
            let mut out = Vec::new();
            let mut plan = codec.plan_delta(&old, &new);
            assert!(r
                .encode_planned(Lba(5), &mut plan, plain, &mut out)
                .is_err());
            assert!(out.is_empty());
            assert_eq!(
                r.encode_planned(Lba(5), &mut plan, plain + 1, &mut out),
                Ok(true)
            );
            assert_eq!(out, whole);
        }
        assert!(seen > 0, "no repeat length produced the one-byte win");
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
