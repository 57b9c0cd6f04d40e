//! Write-trace capture and replay.
//!
//! The paper argues ordinary I/O traces are useless for evaluating PRINS
//! because they carry no data contents. This module defines a trace
//! format that *does*: for each write it stores the delta (as a sparse
//! parity) plus, on first touch of an LBA, the block's prior image —
//! enough to reconstruct every `(old, new)` pair exactly. A captured
//! trace can be replayed against any set of replication strategies
//! without re-running the database, making experiments repeatable and
//! shareable.
//!
//! Wire format (all integers LEB128 varints):
//!
//! ```text
//! trace  := magic(4) block_size record*
//! record := tag(u8) lba [first? old-bytes(block_size)] sparse-parity
//!           tag 0: subsequent write    tag 1: first touch of the lba
//! ```
//!
//! # Example
//!
//! ```
//! use prins_block::BlockSize;
//! use prins_workloads::{capture_trace, RunConfig, Workload};
//!
//! let trace = capture_trace(Workload::FsMicro, &RunConfig::smoke(BlockSize::kb4()))
//!     .expect("capture");
//! assert!(trace.len() > 0);
//! // Replay the identical write stream.
//! let mut writes = 0;
//! trace.replay(|_lba, old, new| {
//!     assert_eq!(old.len(), new.len());
//!     writes += 1;
//! });
//! assert_eq!(writes, trace.len());
//! ```

use std::collections::HashMap;
use std::sync::{Arc, Mutex};

use prins_block::{BlockSize, Lba};
use prins_parity::{decode_varint, encode_varint, SparseCodec, SparseParity};

use crate::runner::{run, RunConfig, Workload, WorkloadError};

const MAGIC: &[u8; 4] = b"PTR1";

enum Record {
    First {
        lba: u64,
        old: Vec<u8>,
        parity: SparseParity,
    },
    Next {
        lba: u64,
        parity: SparseParity,
    },
}

/// A content-carrying block write trace.
pub struct WriteTrace {
    block_size: BlockSize,
    records: Vec<Record>,
}

impl WriteTrace {
    /// Creates an empty trace for blocks of `block_size`.
    pub(crate) fn new(block_size: BlockSize) -> Self {
        Self {
            block_size,
            records: Vec::new(),
        }
    }

    /// The trace's block size.
    pub fn block_size(&self) -> BlockSize {
        self.block_size
    }

    /// Number of recorded writes.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Appends one observed write. `first_touch` marks the first time
    /// this LBA appears (its old image is stored verbatim).
    ///
    /// # Panics
    ///
    /// Panics if the image lengths differ from the trace block size.
    pub(crate) fn record(&mut self, lba: Lba, old: &[u8], new: &[u8], first_touch: bool) {
        assert_eq!(old.len(), self.block_size.bytes(), "old image size");
        assert_eq!(new.len(), self.block_size.bytes(), "new image size");
        let parity = SparseCodec::default().plan_delta(old, new).to_parity();
        self.records.push(if first_touch {
            Record::First {
                lba: lba.index(),
                old: old.to_vec(),
                parity,
            }
        } else {
            Record::Next {
                lba: lba.index(),
                parity,
            }
        });
    }

    /// Replays the trace, invoking `f(lba, old, new)` for every write in
    /// order with fully reconstructed images.
    pub fn replay<F: FnMut(Lba, &[u8], &[u8])>(&self, mut f: F) {
        let mut current: HashMap<u64, Vec<u8>> = HashMap::new();
        for record in &self.records {
            let (lba, parity, old) = match record {
                Record::First { lba, old, parity } => {
                    current.insert(*lba, old.clone());
                    (*lba, parity, old.clone())
                }
                Record::Next { lba, parity } => {
                    let old = current
                        .get(lba)
                        .expect("trace invariant: Next after First")
                        .clone();
                    (*lba, parity, old)
                }
            };
            let mut new = old.clone();
            parity.apply_to(&mut new);
            f(Lba(lba), &old, &new);
            current.insert(lba, new);
        }
    }

    /// Serializes the trace.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        encode_varint(&mut out, self.block_size.bytes() as u64);
        for record in &self.records {
            match record {
                Record::First { lba, old, parity } => {
                    out.push(1);
                    encode_varint(&mut out, *lba);
                    out.extend_from_slice(old);
                    out.extend_from_slice(parity.as_bytes());
                }
                Record::Next { lba, parity } => {
                    out.push(0);
                    encode_varint(&mut out, *lba);
                    out.extend_from_slice(parity.as_bytes());
                }
            }
        }
        out
    }

    /// Parses a trace serialized by [`to_bytes`](Self::to_bytes).
    ///
    /// # Errors
    ///
    /// Returns a message describing the first malformed element.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < 5 || &bytes[..4] != MAGIC {
            return Err("not a PRINS trace (bad magic)".into());
        }
        let mut pos = 4usize;
        let (bs, used) = decode_varint(&bytes[pos..]).ok_or("truncated block size")?;
        pos += used;
        let block_size =
            BlockSize::new(bs as u32).map_err(|e| format!("invalid block size: {e}"))?;
        let bs = block_size.bytes();
        let codec = SparseCodec::default();
        let mut records = Vec::new();
        let mut seen: std::collections::HashSet<u64> = Default::default();
        while pos < bytes.len() {
            let tag = bytes[pos];
            pos += 1;
            let (lba, used) = decode_varint(&bytes[pos..]).ok_or("truncated lba")?;
            pos += used;
            let old = if tag == 1 {
                if pos + bs > bytes.len() {
                    return Err("truncated first-touch image".into());
                }
                let old = bytes[pos..pos + bs].to_vec();
                pos += bs;
                Some(old)
            } else if tag == 0 {
                None
            } else {
                return Err(format!("unknown record tag {tag}"));
            };
            // Sparse parity is self-delimiting: the value is exactly the
            // bytes the decoder consumed.
            let parity = codec
                .decode(&bytes[pos..], bs)
                .map_err(|e| format!("bad parity at offset {pos}: {e}"))?
                .to_owned();
            pos += parity.as_bytes().len();
            match old {
                Some(old) => {
                    seen.insert(lba);
                    records.push(Record::First { lba, old, parity });
                }
                None => {
                    if !seen.contains(&lba) {
                        return Err(format!("lba {lba} written before its first-touch record"));
                    }
                    records.push(Record::Next { lba, parity });
                }
            }
        }
        Ok(Self {
            block_size,
            records,
        })
    }
}

impl std::fmt::Debug for WriteTrace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WriteTrace")
            .field("block_size", &self.block_size)
            .field("records", &self.records.len())
            .finish()
    }
}

/// Runs `workload` and captures its measured-phase write stream as a
/// [`WriteTrace`].
///
/// # Errors
///
/// Propagates workload failures.
pub fn capture_trace(workload: Workload, config: &RunConfig) -> Result<WriteTrace, WorkloadError> {
    let trace = Arc::new(Mutex::new(WriteTrace::new(config.block_size)));
    let seen = Arc::new(Mutex::new(std::collections::HashSet::<u64>::new()));
    let sink = Arc::clone(&trace);
    let seen_sink = Arc::clone(&seen);
    run(
        workload,
        config,
        Some(Box::new(move |_seq, lba, old, new| {
            let first = seen_sink.lock().expect("seen mutex").insert(lba.index());
            sink.lock()
                .expect("trace mutex")
                .record(lba, old, new, first);
        })),
    )?;
    let trace = Arc::try_unwrap(trace)
        .expect("observer dropped")
        .into_inner()
        .expect("trace mutex");
    Ok(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngExt, SeedableRng};

    #[allow(clippy::type_complexity)]
    fn sample_trace() -> (WriteTrace, Vec<(Lba, Vec<u8>, Vec<u8>)>) {
        let bs = BlockSize::new(512).unwrap();
        let mut trace = WriteTrace::new(bs);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        let mut current: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut expected = Vec::new();
        for _ in 0..50 {
            let lba = rng.random_range(0..8u64);
            let old = current.entry(lba).or_insert_with(|| {
                let mut b = vec![0u8; 512];
                rng.fill_bytes(&mut b);
                b
            });
            let old_copy = old.clone();
            let mut new = old_copy.clone();
            let at = rng.random_range(0..480);
            for b in &mut new[at..at + 16] {
                *b = rng.random();
            }
            let first = expected
                .iter()
                .all(|(l, _, _): &(Lba, _, _)| l.index() != lba);
            trace.record(Lba(lba), &old_copy, &new, first);
            expected.push((Lba(lba), old_copy, new.clone()));
            current.insert(lba, new);
        }
        (trace, expected)
    }

    #[test]
    fn replay_reconstructs_every_write_exactly() {
        let (trace, expected) = sample_trace();
        let mut i = 0;
        trace.replay(|lba, old, new| {
            assert_eq!(lba, expected[i].0, "write {i}");
            assert_eq!(old, &expected[i].1[..], "write {i} old");
            assert_eq!(new, &expected[i].2[..], "write {i} new");
            i += 1;
        });
        assert_eq!(i, expected.len());
    }

    #[test]
    fn serialization_roundtrips() {
        let (trace, expected) = sample_trace();
        let bytes = trace.to_bytes();
        let back = WriteTrace::from_bytes(&bytes).unwrap();
        assert_eq!(back.len(), trace.len());
        let mut i = 0;
        back.replay(|lba, old, new| {
            assert_eq!(
                (lba, old, new),
                (expected[i].0, &expected[i].1[..], &expected[i].2[..])
            );
            i += 1;
        });
    }

    #[test]
    fn trace_is_far_smaller_than_raw_images() {
        let (trace, expected) = sample_trace();
        let raw: usize = expected.iter().map(|(_, o, n)| o.len() + n.len()).sum();
        assert!(
            trace.to_bytes().len() * 3 < raw,
            "trace {} vs raw {raw}",
            trace.to_bytes().len()
        );
    }

    #[test]
    fn malformed_traces_are_rejected() {
        assert!(WriteTrace::from_bytes(b"nope").is_err());
        let (trace, _) = sample_trace();
        let bytes = trace.to_bytes();
        // Bad magic.
        let mut bad = bytes.clone();
        bad[0] ^= 0xff;
        assert!(WriteTrace::from_bytes(&bad).is_err());
        // Truncations anywhere must not panic.
        for cut in [5usize, 20, bytes.len() - 1] {
            assert!(WriteTrace::from_bytes(&bytes[..cut]).is_err(), "cut={cut}");
        }
        // A Next record without a First is rejected.
        let mut orphan = Vec::new();
        orphan.extend_from_slice(MAGIC);
        encode_varint(&mut orphan, 512);
        orphan.push(0); // tag Next
        encode_varint(&mut orphan, 3);
        orphan.extend_from_slice(&SparseCodec::default().encode(&vec![0u8; 512]).to_bytes());
        assert!(WriteTrace::from_bytes(&orphan).is_err());
        // A parity claiming 2^40 segments with none behind it is a
        // truncation, not something to make room for.
        let mut hostile = Vec::new();
        hostile.extend_from_slice(MAGIC);
        encode_varint(&mut hostile, 512);
        hostile.push(1); // tag First
        encode_varint(&mut hostile, 3);
        hostile.extend_from_slice(&[0u8; 512]);
        encode_varint(&mut hostile, 512);
        encode_varint(&mut hostile, 1 << 40);
        assert!(WriteTrace::from_bytes(&hostile).is_err());
    }

    #[test]
    fn an_overlong_varint_in_one_parity_leaves_the_next_record_aligned() {
        let mut trace = WriteTrace::new(BlockSize::new(512).unwrap());
        let a = vec![1u8; 512];
        let mut b = a.clone();
        b[10..20].fill(9);
        let mut c = b.clone();
        c[300] = 4;
        trace.record(Lba(2), &a, &b, true);
        trace.record(Lba(2), &b, &c, false);
        let canonical = trace.to_bytes();
        // Re-spell the first parity's block length, 512 = [0x80, 0x04],
        // one byte longer; the decoder takes both spellings.
        let at = MAGIC.len() + 2 + 1 + 1 + 512; // block size, tag, lba, old image
        assert_eq!(canonical[at..at + 2], [0x80, 0x04]);
        let overlong = [&canonical[..at], &[0x80, 0x84, 0x00], &canonical[at + 2..]].concat();
        let replayed = |bytes: &[u8]| {
            let mut writes = Vec::new();
            WriteTrace::from_bytes(bytes)
                .unwrap()
                .replay(|lba, old, new| writes.push((lba, old.to_vec(), new.to_vec())));
            writes
        };
        assert_eq!(replayed(&overlong), replayed(&canonical));
        assert_eq!(
            replayed(&overlong),
            [(Lba(2), a, b.clone()), (Lba(2), b, c)]
        );
    }

    #[test]
    fn captured_workload_trace_replays_consistently() {
        let config = crate::RunConfig::smoke(BlockSize::kb4());
        let trace = capture_trace(Workload::FsMicro, &config).unwrap();
        assert!(!trace.is_empty());
        // Round-trip through bytes, then verify replay still works and
        // deltas are partial.
        let back = WriteTrace::from_bytes(&trace.to_bytes()).unwrap();
        let mut changed = 0usize;
        let mut total = 0usize;
        back.replay(|_, old, new| {
            changed += old.iter().zip(new).filter(|(a, b)| a != b).count();
            total += old.len();
        });
        assert!(changed > 0);
        assert!(changed < total, "writes must be partial");
    }
}
