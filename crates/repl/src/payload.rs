//! The owned, decoded form of the replication messages.
//!
//! Every replicated write is one [`Payload`] — the paper's "results of
//! the forward parity computation are then sent together with meta-data
//! such as LBA to replica nodes" — and a [`BatchFrame`] packs several
//! under one acknowledgement round-trip. Their wire bytes are written
//! by the `wire` module; the byte-level grammar is the table in
//! DESIGN.md §8.

use prins_block::Lba;
use prins_parity::decode_varint;

use crate::wire::{
    self, BATCH_TAG, COMPRESSED_TAG, FULL_TAG, PARITY_COMPRESSED_TAG, PARITY_TAG, STRIP_DELTA_TAG,
    SYNC_MARKER_TAG,
};
use crate::ReplError;

/// Upper bound on any length claim decoded from the wire
/// (`block_len`, `sparse_len`).
///
/// These varints are attacker-controlled: a frame claiming a
/// multi-gigabyte uncompressed size must be rejected at parse time,
/// before the claim can reach an allocator (the LZSS decoder enforces
/// the same budget as defense in depth). The budget is
/// [`prins_compress::MAX_DECODE_LEN`] — far above the largest block the
/// stack ships (64 KB), far below harm.
pub const MAX_WIRE_LEN: usize = prins_compress::MAX_DECODE_LEN;

/// Decoded body of a replication payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PayloadBody {
    /// Full block image (traditional replication / initial sync).
    Full(Vec<u8>),
    /// LZSS-compressed block image; `block_len` is the uncompressed size.
    Compressed {
        /// Uncompressed block length.
        block_len: usize,
        /// LZSS stream.
        data: Vec<u8>,
    },
    /// Zero-run-encoded PRINS parity.
    Parity(Vec<u8>),
    /// LZSS over the encoded parity (ablation mode).
    ParityCompressed {
        /// Length of the sparse-parity stream before compression.
        sparse_len: usize,
        /// LZSS stream.
        data: Vec<u8>,
    },
    /// Marks the end of an initial sync stream.
    SyncMarker,
    /// Coefficient-tagged erasure-strip delta: apply
    /// `strip ^= coeff · Δ` over GF(256).
    StripDelta {
        /// Generator coefficient (1 for the data strip itself).
        coeff: u8,
        /// Zero-run-encoded delta, same format as [`Parity`].
        ///
        /// [`Parity`]: PayloadBody::Parity
        data: Vec<u8>,
    },
}

/// One replicated write on the wire.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Payload {
    /// Address the write applies to.
    pub lba: Lba,
    /// The strategy-specific body.
    pub body: PayloadBody,
}

impl Payload {
    /// Serializes to wire bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        let (out, lba) = (&mut buf, self.lba);
        match &self.body {
            PayloadBody::Full(data) => wire::put_full(out, lba, data),
            PayloadBody::Compressed { block_len, data } => {
                wire::put_compressed(out, lba, *block_len, |out| out.extend_from_slice(data));
            }
            PayloadBody::Parity(data) => {
                wire::put_parity(out, lba, |out| out.extend_from_slice(data));
            }
            PayloadBody::ParityCompressed { sparse_len, data } => {
                wire::put_parity_compressed(out, lba, *sparse_len, |out| {
                    out.extend_from_slice(data)
                });
            }
            PayloadBody::SyncMarker => wire::put_sync_marker(out, lba),
            PayloadBody::StripDelta { coeff, data } => {
                wire::put_strip_delta(out, lba, *coeff, data);
            }
        }
        buf
    }

    /// Parses wire bytes.
    ///
    /// # Errors
    ///
    /// [`ReplError::Malformed`] on unknown tags or truncated headers.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplError> {
        let PayloadRef { lba, body } = PayloadRef::parse(bytes)?;
        let body = match body {
            BodyRef::Full(data) => PayloadBody::Full(data.to_vec()),
            BodyRef::Compressed { block_len, data } => PayloadBody::Compressed {
                block_len,
                data: data.to_vec(),
            },
            BodyRef::Parity(data) => PayloadBody::Parity(data.to_vec()),
            BodyRef::ParityCompressed { sparse_len, data } => PayloadBody::ParityCompressed {
                sparse_len,
                data: data.to_vec(),
            },
            BodyRef::SyncMarker => PayloadBody::SyncMarker,
            BodyRef::StripDelta { coeff, data } => PayloadBody::StripDelta {
                coeff,
                data: data.to_vec(),
            },
        };
        Ok(Self { lba, body })
    }
}

/// [`PayloadBody`] with its bytes still in the frame they arrived in.
pub(crate) enum BodyRef<'a> {
    Full(&'a [u8]),
    Compressed { block_len: usize, data: &'a [u8] },
    Parity(&'a [u8]),
    ParityCompressed { sparse_len: usize, data: &'a [u8] },
    SyncMarker,
    StripDelta { coeff: u8, data: &'a [u8] },
}

/// A [`Payload`] parsed in place — the one parser: the replica applies
/// from this form, reading each body where it lies, and
/// [`Payload::from_bytes`] is this plus a copy.
pub(crate) struct PayloadRef<'a> {
    pub(crate) lba: Lba,
    pub(crate) body: BodyRef<'a>,
}

impl<'a> PayloadRef<'a> {
    /// Parses wire bytes; see [`Payload::from_bytes`].
    pub(crate) fn parse(bytes: &'a [u8]) -> Result<Self, ReplError> {
        let (&tag, rest) = bytes
            .split_first()
            .ok_or_else(|| ReplError::Malformed("empty payload".into()))?;
        let (lba, used) =
            decode_varint(rest).ok_or_else(|| ReplError::Malformed("truncated lba".into()))?;
        let rest = &rest[used..];
        // A length claim ahead of an LZSS stream, held to the budget.
        let claimed_len = |what: &str| {
            let (len, used) = decode_varint(rest)
                .ok_or_else(|| ReplError::Malformed(format!("truncated {what}")))?;
            if len > MAX_WIRE_LEN as u64 {
                return Err(ReplError::Malformed(format!(
                    "{what} {len} exceeds budget {MAX_WIRE_LEN}"
                )));
            }
            Ok((len as usize, &rest[used..]))
        };
        let body = match tag {
            FULL_TAG => BodyRef::Full(rest),
            COMPRESSED_TAG => {
                let (block_len, data) = claimed_len("block_len")?;
                BodyRef::Compressed { block_len, data }
            }
            PARITY_TAG => BodyRef::Parity(rest),
            PARITY_COMPRESSED_TAG => {
                let (sparse_len, data) = claimed_len("sparse_len")?;
                BodyRef::ParityCompressed { sparse_len, data }
            }
            SYNC_MARKER_TAG => BodyRef::SyncMarker,
            STRIP_DELTA_TAG => {
                let (&coeff, data) = rest
                    .split_first()
                    .ok_or_else(|| ReplError::Malformed("truncated strip coefficient".into()))?;
                BodyRef::StripDelta { coeff, data }
            }
            other => return Err(ReplError::Malformed(format!("unknown tag {other}"))),
        };
        Ok(Self {
            lba: Lba(lba),
            body,
        })
    }
}

/// Several serialized payloads packed into a single wire message.
///
/// Small PRINS parities pay one network/ack round-trip each; batching
/// amortizes that per-message cost — the replica applies every inner
/// payload in order and answers with a *single* acknowledgement.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BatchFrame {
    /// The packed payloads, each a serialized [`Payload`], in apply
    /// order.
    pub payloads: Vec<Vec<u8>>,
}

impl BatchFrame {
    /// Whether `bytes` starts like a batch frame (vs a bare payload).
    pub fn is_batch(bytes: &[u8]) -> bool {
        bytes.first() == Some(&BATCH_TAG)
    }

    /// Serializes the frame.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        wire::put_batch(&mut out, self.payloads.iter().map(Vec::as_slice));
        out
    }

    /// Parses a frame serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// The inner payloads are *not* decoded — apply them one by one so
    /// a malformed element surfaces at its own position.
    ///
    /// # Errors
    ///
    /// [`ReplError::Malformed`] on a wrong tag, truncated length
    /// prefixes, or payloads running past the end of the message.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, ReplError> {
        let payloads = wire::batch_payloads(bytes)?.map(<[u8]>::to_vec).collect();
        Ok(Self { payloads })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn all_bodies_roundtrip() {
        let cases = vec![
            Payload {
                lba: Lba(0),
                body: PayloadBody::Full(vec![1, 2, 3]),
            },
            Payload {
                lba: Lba(u32::MAX as u64 + 5),
                body: PayloadBody::Compressed {
                    block_len: 8192,
                    data: vec![9; 40],
                },
            },
            Payload {
                lba: Lba(300),
                body: PayloadBody::Parity(vec![0xde, 0xad]),
            },
            Payload {
                lba: Lba(7),
                body: PayloadBody::ParityCompressed {
                    sparse_len: 77,
                    data: vec![1; 10],
                },
            },
            Payload {
                lba: Lba(0),
                body: PayloadBody::SyncMarker,
            },
            Payload {
                lba: Lba(42),
                body: PayloadBody::StripDelta {
                    coeff: 0x8e,
                    data: vec![3, 1, 4, 1, 5],
                },
            },
        ];
        for p in cases {
            assert_eq!(Payload::from_bytes(&p.to_bytes()).unwrap(), p);
        }
    }

    #[test]
    fn strip_delta_rejects_missing_coefficient() {
        assert!(Payload::from_bytes(&[STRIP_DELTA_TAG, 0]).is_err());
    }

    #[test]
    fn rejects_empty_and_unknown_tag() {
        assert!(Payload::from_bytes(&[]).is_err());
        assert!(Payload::from_bytes(&[9, 0]).is_err());
    }

    #[test]
    fn rejects_truncated_headers() {
        // tag=1 with lba but no block_len varint
        assert!(Payload::from_bytes(&[1]).is_err());
        // varint continuation byte with nothing after
        assert!(Payload::from_bytes(&[0, 0x80]).is_err());
    }

    #[test]
    fn batch_frame_roundtrips() {
        let frame = BatchFrame {
            payloads: vec![
                Payload {
                    lba: Lba(1),
                    body: PayloadBody::Parity(vec![1, 2, 3]),
                }
                .to_bytes(),
                Payload {
                    lba: Lba(900),
                    body: PayloadBody::Full(vec![0; 64]),
                }
                .to_bytes(),
                Vec::new(),
            ],
        };
        let bytes = frame.to_bytes();
        assert!(BatchFrame::is_batch(&bytes));
        assert_eq!(BatchFrame::from_bytes(&bytes).unwrap(), frame);
        // A bare payload is not mistaken for a batch.
        let bare = Payload {
            lba: Lba(0),
            body: PayloadBody::SyncMarker,
        }
        .to_bytes();
        assert!(!BatchFrame::is_batch(&bare));
        assert!(BatchFrame::from_bytes(&bare).is_err());
    }

    #[test]
    fn batch_frame_rejects_bad_structure() {
        assert!(BatchFrame::from_bytes(&[]).is_err());
        // count says 1 but no length follows
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1]).is_err());
        // length runs past the end
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1, 5, 0xaa]).is_err());
        // trailing garbage after the declared payloads
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 1, 1, 0xaa, 0xbb]).is_err());
        // huge declared count must not allocate or panic
        assert!(BatchFrame::from_bytes(&[BATCH_TAG, 0xff, 0xff, 0xff, 0xff, 0x7f]).is_err());
    }

    proptest! {
        #[test]
        fn prop_roundtrip(lba in any::<u64>(), tag in 0u8..6,
                          n in 0usize..256, data in proptest::collection::vec(any::<u8>(), 0..256)) {
            let body = match tag {
                0 => PayloadBody::Full(data),
                1 => PayloadBody::Compressed { block_len: n, data },
                2 => PayloadBody::Parity(data),
                3 => PayloadBody::ParityCompressed { sparse_len: n, data },
                4 => PayloadBody::StripDelta { coeff: n as u8, data },
                _ => PayloadBody::SyncMarker,
            };
            let p = Payload { lba: Lba(lba), body };
            prop_assert_eq!(Payload::from_bytes(&p.to_bytes()).unwrap(), p);
        }

        /// Arbitrary bytes must decode to `Ok` or `Err` — never panic.
        #[test]
        fn prop_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Payload::from_bytes(&bytes);
        }

        /// Every strict prefix of a valid encoding either still parses
        /// (trailing data is body bytes) or errors cleanly — no panics
        /// on truncation.
        #[test]
        fn prop_truncation_never_panics(lba in any::<u64>(), tag in 0u8..5,
                                        cut in 0usize..64,
                                        data in proptest::collection::vec(any::<u8>(), 0..64)) {
            let body = match tag {
                0 => PayloadBody::Full(data),
                1 => PayloadBody::Compressed { block_len: data.len(), data },
                2 => PayloadBody::Parity(data),
                3 => PayloadBody::ParityCompressed { sparse_len: data.len(), data },
                _ => PayloadBody::SyncMarker,
            };
            let wire = Payload { lba: Lba(lba), body }.to_bytes();
            let keep = wire.len().saturating_sub(cut);
            let _ = Payload::from_bytes(&wire[..keep]);
        }

        /// Batch frames round-trip through encode/decode for arbitrary
        /// packed payload bytes.
        #[test]
        fn prop_batch_roundtrip(payloads in proptest::collection::vec(
                                    proptest::collection::vec(any::<u8>(), 0..64), 0..12)) {
            let frame = BatchFrame { payloads };
            let back = BatchFrame::from_bytes(&frame.to_bytes()).unwrap();
            prop_assert_eq!(back, frame);
        }

        /// Every truncation of a valid batch frame is rejected cleanly —
        /// never a panic, and never a silent partial decode.
        #[test]
        fn prop_batch_truncation_rejected(payloads in proptest::collection::vec(
                                              proptest::collection::vec(any::<u8>(), 0..32), 1..8),
                                          cut in 1usize..64) {
            let wire = BatchFrame { payloads }.to_bytes();
            let keep = wire.len().saturating_sub(cut.min(wire.len() - 1)); // keep >= 1 (the tag)
            if keep < wire.len() {
                prop_assert!(BatchFrame::from_bytes(&wire[..keep]).is_err());
            }
        }

        /// Arbitrary bytes never panic the batch decoder.
        #[test]
        fn prop_batch_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = BatchFrame::from_bytes(&bytes);
        }
    }
}
