#![recursion_limit = "1024"]
//! Adversarial wire-decode corpus.
//!
//! The replica parses frames a hostile peer controls byte for byte.
//! These tests pin the decode-side hardening:
//!
//! * oversized length claims (`block_len`, `sparse_len`, batch counts,
//!   LZSS `expected_len`) are rejected at parse time, before any
//!   allocator sees them;
//! * truncated LZSS streams fail cleanly through the full apply path;
//! * a sparse-parity segment count is never believed: the 8-byte stream
//!   `varint(block_len) varint(2^40)` is a truncation on every path a
//!   sparse stream arrives by — payload tags 2, 3 and 8, and the image
//!   body of a `READ_ACK` / `STRIP_ACK`;
//! * tag 4, a sync marker that no sender emits any more, is an
//!   unknown tag: malformed on parse, NAKed by a replica;
//! * a counting allocator proves decoding arbitrary bytes never makes a
//!   single allocation beyond the wire budget (plus `Vec` growth
//!   doubling slack) — no matter what the frame claims.
//!
//! Kept in its own test binary because of the global allocator.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;

use prins_block::{crc32c, crc32c_append, BlockDevice, BlockSize, Lba, MemDevice};
use prins_parity::{encode_varint, CodecError, SparseCodec};
use prins_repl::{
    encode_ack, seal_frame, BatchFrame, Link, Payload, PayloadBody, ReplError, ReplicaApplier,
    MAX_WIRE_LEN, NAK, READ_ACK, STRIP_ACK,
};
use proptest::prelude::*;

struct MaxAlloc;

static WATCHING: AtomicBool = AtomicBool::new(false);
static LARGEST: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    if WATCHING.load(Ordering::Relaxed) {
        LARGEST.fetch_max(size, Ordering::Relaxed);
    }
}

unsafe impl GlobalAlloc for MaxAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: MaxAlloc = MaxAlloc;

/// The largest single allocation made while `decoding` runs (by any
/// thread: the tests of this binary that do not measure allocate little).
fn largest_allocation(decoding: impl FnOnce()) -> usize {
    static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());
    let _measuring = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    LARGEST.store(0, Ordering::SeqCst);
    WATCHING.store(true, Ordering::SeqCst);
    decoding();
    WATCHING.store(false, Ordering::SeqCst);
    LARGEST.load(Ordering::SeqCst)
}

/// A frame of `tag`, an LBA, then raw `body` bytes.
fn frame(tag: u8, body: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    encode_varint(&mut out, 3); // lba
    out.extend_from_slice(body);
    out
}

/// A frame whose body starts with a length varint claiming `claim`.
fn frame_with_claim(tag: u8, claim: u64, data: &[u8]) -> Vec<u8> {
    let mut out = vec![tag];
    encode_varint(&mut out, 3);
    encode_varint(&mut out, claim);
    out.extend_from_slice(data);
    out
}

#[test]
fn oversized_length_claims_are_rejected_per_tag() {
    let huge = (MAX_WIRE_LEN as u64) + 1;
    // Tag 1 (Compressed): block_len over budget.
    let r = Payload::from_bytes(&frame_with_claim(1, huge, &[0x02, 0xaa]));
    assert!(matches!(r, Err(ReplError::Malformed(_))), "{r:?}");
    // Tag 3 (ParityCompressed): sparse_len over budget.
    let r = Payload::from_bytes(&frame_with_claim(3, huge, &[0x02, 0xaa]));
    assert!(matches!(r, Err(ReplError::Malformed(_))), "{r:?}");
    // u64::MAX claims must not wrap into small usize values.
    for tag in [1u8, 3] {
        assert!(Payload::from_bytes(&frame_with_claim(tag, u64::MAX, &[])).is_err());
    }
    // The largest in-budget claim still parses (the decompressor then
    // enforces it against the actual stream).
    for tag in [1u8, 3] {
        let p = Payload::from_bytes(&frame_with_claim(tag, MAX_WIRE_LEN as u64, &[0x02, 0xaa]));
        assert!(p.is_ok(), "{p:?}");
    }
    // Tags without a length varint still decode arbitrary bodies without
    // trusting any claim (bodies are bounded by the message itself).
    for tag in [0u8, 2] {
        assert!(Payload::from_bytes(&frame(tag, &[0xff; 32])).is_ok());
    }
    assert!(Payload::from_bytes(&frame(8, &[1, 0xff, 0xff])).is_ok());
    // Batch (tag 5): a giant count with no payloads behind it.
    let mut batch = vec![5u8];
    encode_varint(&mut batch, u64::MAX / 2);
    assert!(BatchFrame::from_bytes(&batch).is_err());
}

#[test]
fn the_retired_tag_4_is_malformed_on_parse() {
    let r = Payload::from_bytes(&frame(4, &[]));
    assert!(matches!(r, Err(ReplError::Malformed(_))), "{r:?}");
}

#[test]
fn a_replica_naks_the_retired_tag_4_and_leaves_the_device_untouched() {
    let device = MemDevice::new(BlockSize::kb4(), 4);
    let mut applier = ReplicaApplier::new(&device);
    let (reply, rejected) = applier.respond(&seal_frame(1, &frame(4, &[])));
    assert_eq!(reply, encode_ack(NAK, 1));
    assert!(
        matches!(rejected, Some(ReplError::Malformed(_))),
        "{rejected:?}"
    );
    assert_eq!(applier.applied(), 0);
    for lba in 0..4 {
        assert_eq!(device.read_block_vec(Lba(lba)).unwrap(), vec![0u8; 4096]);
    }
}

#[test]
fn truncated_lzss_streams_fail_cleanly_through_apply() {
    use prins_compress::{Codec, Lzss};
    let device = MemDevice::new(BlockSize::kb4(), 4);
    let mut applier = ReplicaApplier::new(&device);

    let block: Vec<u8> = (0..4096u32).map(|i| (i / 7) as u8).collect();
    let packed = Lzss::fast().compress(&block);
    let whole = Payload {
        lba: prins_block::Lba(1),
        body: PayloadBody::Compressed {
            block_len: 4096,
            data: packed.clone(),
        },
    }
    .to_bytes();
    assert!(applier.apply(&whole).unwrap());

    // Every proper prefix of the compressed stream must be rejected
    // (Compress or Malformed), never applied and never a panic.
    for cut in 0..packed.len() {
        let hostile = Payload {
            lba: prins_block::Lba(2),
            body: PayloadBody::Compressed {
                block_len: 4096,
                data: packed[..cut].to_vec(),
            },
        }
        .to_bytes();
        assert!(applier.apply(&hostile).is_err(), "cut={cut}");
    }
    // Same through the ParityCompressed arm: claim a sparse_len the
    // truncated stream cannot produce.
    for cut in [0, 1, packed.len() / 2] {
        let hostile = Payload {
            lba: prins_block::Lba(2),
            body: PayloadBody::ParityCompressed {
                sparse_len: 4096,
                data: packed[..cut].to_vec(),
            },
        }
        .to_bytes();
        assert!(applier.apply(&hostile).is_err(), "cut={cut}");
    }
    assert_eq!(applier.applied(), 1, "no hostile frame may apply");
}

#[test]
fn a_hostile_segment_count_is_a_truncation_on_every_path_a_stream_arrives_by() {
    use prins_compress::{Codec, Lzss};
    // A well-formed header for this device's blocks claiming a trillion
    // segments, and nothing else.
    let mut stream = Vec::new();
    encode_varint(&mut stream, 4096);
    encode_varint(&mut stream, 1 << 40);
    assert_eq!(stream.len(), 8);

    let device = MemDevice::new(BlockSize::kb4(), 4);
    let mut applier = ReplicaApplier::new(&device);
    let payloads = [
        frame(2, &stream),
        // Tag 8: the same stream behind a coefficient byte.
        frame(8, &[&[1u8][..], &stream].concat()),
        // Tag 3: an honest LZSS body that inflates to it.
        Payload {
            lba: prins_block::Lba(3),
            body: PayloadBody::ParityCompressed {
                sparse_len: stream.len(),
                data: Lzss::fast().compress(&stream),
            },
        }
        .to_bytes(),
    ];
    // The same stream as the checksummed image body of a read or strip
    // answer: it passes the response rule, and the primary then decodes
    // the body the way `ClusterGroup::read` and `EcGroup::fetch_strip` do.
    let image_ack = |status: u8| {
        let crc = crc32c_append(crc32c(&1u64.to_le_bytes()), &stream);
        [&[status, 1][..], &crc.to_le_bytes(), &stream].concat()
    };
    let sink = prins_net::SinkTransport::new();
    sink.preload([image_ack(READ_ACK), image_ack(STRIP_ACK)]);
    let link = Link::new(0, Box::new(sink));

    let largest = largest_allocation(|| {
        for payload in &payloads {
            let got = applier.apply(payload);
            assert!(
                matches!(got, Err(ReplError::Parity(CodecError::Truncated))),
                "tag {}: {got:?}",
                payload[0]
            );
        }
        for want in [READ_ACK, STRIP_ACK] {
            let response = link
                .recv_response(want, 1, std::time::Duration::from_secs(1), &mut |_| {})
                .expect("a well-sealed image ack");
            assert_eq!(response.body(), stream);
            assert_eq!(
                SparseCodec::default().decode(response.body(), 4096),
                Err(CodecError::Truncated)
            );
        }
    });
    assert_eq!(applier.applied(), 0);
    assert!(
        largest <= 2 * MAX_WIRE_LEN,
        "an 8-byte stream made a decoder allocate {largest} bytes"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Decoding arbitrary bytes — bare payload, batch, and the full
    /// apply path including LZSS — never allocates a single buffer
    /// beyond the wire budget. `Vec` doubles its capacity while
    /// growing, so the observable bound is 2x the budget; the point is
    /// that a 16-byte frame claiming 4 GB allocates nothing of the
    /// sort. Half the claims are the device's own block size, so a
    /// parity body gets past the block-length check and its next
    /// varint — the segment count — is arbitrary too.
    #[test]
    fn prop_decode_allocations_stay_under_the_wire_budget(
        bytes in proptest::collection::vec(any::<u8>(), 0..512),
        tag in 0u8..10,
        claim in any::<u64>(),
        claim_fits_device in any::<bool>(),
    ) {
        let mut bytes = bytes;
        let device = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&device);
        let claim = if claim_fits_device { 4096 } else { claim };
        let claimed = frame_with_claim(tag % 6, claim, &bytes);

        let largest = largest_allocation(|| {
            let _ = Payload::from_bytes(&bytes);
            let _ = Payload::from_bytes(&claimed);
            let _ = BatchFrame::from_bytes(&bytes);
            let _ = applier.apply(&bytes);
            let _ = applier.apply(&claimed);
            if !bytes.is_empty() {
                bytes[0] = tag; // retry with every dispatchable tag byte
                let _ = applier.apply(&bytes);
            }
        });
        prop_assert!(
            largest <= 2 * MAX_WIRE_LEN,
            "a decode allocated {largest} bytes from a {}-byte frame",
            claimed.len(),
        );
    }
}
