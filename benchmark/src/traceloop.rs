//! Seeded content for every workload: a captured write trace turned
//! once into XOR deltas, then walked forward and backward for as long
//! as a run lasts.

use prins_block::{BlockSize, Lba};
use prins_parity::{forward_parity, SparseCodec, SparseParity};
use prins_workloads::{capture_trace, RunConfig, ScalePreset, Workload, WorkloadError};

/// One write of the trace as "XOR this into the block at `lba`".
pub struct Op {
    pub lba: Lba,
    pub delta: SparseParity,
}

/// A trace's writes plus the image every device starts from.
pub struct OpList {
    pub block_size: BlockSize,
    /// Dense pre-trace image of the whole device (untouched blocks are
    /// zero, as on a fresh `MemDevice`).
    pub initial: Vec<u8>,
    pub ops: Vec<Op>,
}

impl OpList {
    /// Runs `content` for `txns` operations from `seed` on 8 KB blocks
    /// and converts the captured writes.
    pub fn capture(
        content: Workload,
        txns: usize,
        scale: ScalePreset,
        seed: u64,
    ) -> Result<Self, WorkloadError> {
        let block_size = BlockSize::kb8();
        let config = RunConfig {
            block_size,
            ops: txns,
            seed,
            scale,
        };
        let trace = capture_trace(content, &config)?;
        let bs = block_size.bytes();
        let codec = SparseCodec::default();
        let mut ops = Vec::with_capacity(trace.len());
        let mut initial: Vec<u8> = Vec::new();
        let mut seen = std::collections::HashSet::new();
        trace.replay(|lba, old, new| {
            let at = lba.index() as usize * bs;
            if initial.len() < at + bs {
                initial.resize(at + bs, 0);
            }
            if seen.insert(lba.index()) {
                initial[at..at + bs].copy_from_slice(old);
            }
            ops.push(Op {
                lba,
                delta: codec.encode(&forward_parity(old, new)),
            });
        });
        Ok(Self {
            block_size,
            initial,
            ops,
        })
    }
}

/// Walks an [`OpList`] forward, then backward, then forward again, and
/// keeps the image the system under test must hold after each write.
///
/// XOR is its own inverse, so undoing write *i* is a write with exactly
/// write *i*'s delta: change ratio and wire bytes per write are the same
/// in both directions, memory is constant for any run length, and the
/// timed loop hands the system a slice of the shadow — no per-write
/// clone.
pub struct TraceLoop<'a> {
    ops: &'a [Op],
    shadow: Vec<u8>,
    bs: usize,
    pos: usize,
    backward: bool,
}

impl<'a> TraceLoop<'a> {
    pub fn new(list: &'a OpList) -> Self {
        assert!(!list.ops.is_empty(), "empty trace");
        Self {
            ops: &list.ops,
            shadow: list.initial.clone(),
            bs: list.block_size.bytes(),
            pos: 0,
            backward: false,
        }
    }

    /// Applies the next write to the shadow and returns its address and
    /// the block's new image.
    pub fn next_write(&mut self) -> (Lba, &[u8]) {
        let op = if self.backward {
            self.pos -= 1;
            if self.pos == 0 {
                self.backward = false;
            }
            &self.ops[self.pos]
        } else {
            let op = &self.ops[self.pos];
            self.pos += 1;
            if self.pos == self.ops.len() {
                self.backward = true;
            }
            op
        };
        let at = op.lba.index() as usize * self.bs;
        let block = &mut self.shadow[at..at + self.bs];
        op.delta.apply_to(block);
        (op.lba, block)
    }

    /// The image of `lba` after the writes so far.
    pub fn block(&self, lba: Lba) -> &[u8] {
        let at = lba.index() as usize * self.bs;
        &self.shadow[at..at + self.bs]
    }

    /// The whole expected device image.
    pub fn shadow(&self) -> &[u8] {
        &self.shadow
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke_list(seed: u64) -> OpList {
        OpList::capture(Workload::TpccOracle, 20, ScalePreset::Smoke, seed).unwrap()
    }

    #[test]
    fn even_number_of_passes_restores_every_block() {
        let list = smoke_list(7);
        let mut tl = TraceLoop::new(&list);
        for pass in 1..=4 {
            for _ in 0..list.ops.len() {
                tl.next_write();
            }
            if pass % 2 == 0 {
                assert!(tl.shadow() == &list.initial[..], "pass {pass}");
            } else {
                assert!(
                    tl.shadow() != &list.initial[..],
                    "pass {pass} changed nothing"
                );
            }
        }
    }

    #[test]
    fn reverse_write_has_the_forward_writes_delta() {
        let list = smoke_list(7);
        let n = list.ops.len();
        let codec = SparseCodec::default();
        let mut tl = TraceLoop::new(&list);
        let mut forward = Vec::with_capacity(n);
        for _ in 0..n {
            let old = {
                let lba = list.ops[forward.len()].lba;
                tl.block(lba).to_vec()
            };
            let (lba, new) = tl.next_write();
            forward.push((lba, codec.delta_wire_info(&old, new)));
        }
        for i in (0..n).rev() {
            let old = tl.block(list.ops[i].lba).to_vec();
            let (lba, new) = tl.next_write();
            assert_eq!(
                (lba, codec.delta_wire_info(&old, new)),
                forward[i],
                "op {i}"
            );
        }
    }

    #[test]
    fn seed_decides_the_op_list() {
        let key = |l: &OpList| -> Vec<(u64, Vec<u8>)> {
            l.ops
                .iter()
                .map(|op| (op.lba.index(), op.delta.to_bytes()))
                .collect()
        };
        let (a, b, c) = (smoke_list(7), smoke_list(7), smoke_list(8));
        assert!(
            key(&a) == key(&b) && a.initial == b.initial,
            "same seed differs"
        );
        assert!(key(&a) != key(&c), "different seed, same ops");
    }
}
