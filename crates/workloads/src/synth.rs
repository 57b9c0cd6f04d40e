//! Synthetic ablation workloads for the adaptive policy engine.
//!
//! The four paper workloads all favour the parity family: database
//! pages and filesystem blocks change a few percent per write, so a
//! sparse parity is almost always the cheapest wire encoding. That
//! makes them useless for separating the *other* static strategies —
//! and for stressing a policy that has to pick between them. These two
//! generators fill that gap:
//!
//! * [`TextStore`] rewrites whole documents of English-ish prose: the
//!   parity is dense (a rewrite changes nearly every byte) but the new
//!   content compresses ~3×, so static `Compressed` wins and every
//!   parity-family strategy degenerates to shipping full images.
//! * [`HostileMix`] interleaves three zones with opposite optima —
//!   incompressible small deltas (parity wins), compressible full
//!   rewrites (compression wins), incompressible full rewrites (raw
//!   full images win). No single static strategy is optimal across
//!   zones; a per-region policy can beat all four.

use rand::Rng;

use prins_block::{BlockDevice, BlockError, Lba};
use std::sync::Arc;

use crate::text::prose;

/// Fills `buf` with incompressible bytes from `rng`.
fn random_fill<R: Rng>(rng: &mut R, buf: &mut [u8]) {
    rng.fill_bytes(buf);
}

/// A document store of whole-block prose rewrites.
///
/// Each operation picks a document and rewrites it in place with fresh
/// prose — modelling a save-file loop in an editor or a template
/// renderer. Every write is a dense, highly compressible full-block
/// change.
pub(crate) struct TextStore {
    device: Arc<dyn BlockDevice>,
    docs: u64,
    block_bytes: usize,
    ops_run: u64,
}

impl TextStore {
    /// Populates the first `docs` blocks of `device` with prose.
    ///
    /// # Errors
    ///
    /// Propagates device write failures.
    pub(crate) fn setup<R: Rng>(
        device: Arc<dyn BlockDevice>,
        docs: u64,
        rng: &mut R,
    ) -> Result<Self, BlockError> {
        let geometry = device.geometry();
        let docs = docs.min(geometry.num_blocks()).max(1);
        let block_bytes = geometry.block_size().bytes();
        for lba in 0..docs {
            let body = prose(rng, block_bytes);
            device.write_block(Lba(lba), body.as_bytes())?;
        }
        device.flush()?;
        Ok(Self {
            device,
            docs,
            block_bytes,
            ops_run: 0,
        })
    }

    /// Runs `ops` full-document rewrites.
    ///
    /// # Errors
    ///
    /// Propagates device write failures.
    pub(crate) fn run<R: Rng>(&mut self, ops: usize, rng: &mut R) -> Result<(), BlockError> {
        for _ in 0..ops {
            let lba = Lba(rng.random_range(0..self.docs));
            let body = prose(rng, self.block_bytes);
            self.device.write_block(lba, body.as_bytes())?;
            self.ops_run += 1;
        }
        self.device.flush()
    }

    /// Rewrites performed by [`run`](Self::run) so far.
    pub(crate) fn ops_run(&self) -> u64 {
        self.ops_run
    }
}

/// The three access patterns [`HostileMix`] interleaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Zone {
    /// Random content, a few bytes flipped per write → parity wins.
    SparseBinary,
    /// Prose content, whole block rewritten per write → compression wins.
    RewriteText,
    /// Random content, whole block rewritten per write → raw full wins.
    RewriteBinary,
}

/// A zoned adversarial workload: each third of the device follows one
/// of three access patterns whose optimal wire encodings differ, and
/// operations round-robin across zones so every strategy window sees a
/// mix.
///
/// Zones are contiguous LBA ranges, so a per-region classifier can
/// learn each zone's optimum; a single static strategy cannot.
pub(crate) struct HostileMix {
    device: Arc<dyn BlockDevice>,
    zone_blocks: u64,
    block_bytes: usize,
    ops_run: u64,
}

impl HostileMix {
    const ZONES: [Zone; 3] = [Zone::SparseBinary, Zone::RewriteText, Zone::RewriteBinary];

    /// Populates three zones of `zone_blocks` blocks each: zones 0 and
    /// 2 with incompressible bytes, zone 1 with prose.
    ///
    /// # Errors
    ///
    /// Propagates device write failures.
    pub(crate) fn setup<R: Rng>(
        device: Arc<dyn BlockDevice>,
        zone_blocks: u64,
        rng: &mut R,
    ) -> Result<Self, BlockError> {
        let geometry = device.geometry();
        let zone_blocks = zone_blocks.min(geometry.num_blocks() / 3).max(1);
        let block_bytes = geometry.block_size().bytes();
        let mut buf = vec![0u8; block_bytes];
        for (index, zone) in Self::ZONES.iter().enumerate() {
            for offset in 0..zone_blocks {
                let lba = Lba(index as u64 * zone_blocks + offset);
                match zone {
                    Zone::RewriteText => {
                        device.write_block(lba, prose(rng, block_bytes).as_bytes())?;
                    }
                    Zone::SparseBinary | Zone::RewriteBinary => {
                        random_fill(rng, &mut buf);
                        device.write_block(lba, &buf)?;
                    }
                }
            }
        }
        device.flush()?;
        Ok(Self {
            device,
            zone_blocks,
            block_bytes,
            ops_run: 0,
        })
    }

    /// Runs `ops` writes, round-robining across the three zones.
    ///
    /// # Errors
    ///
    /// Propagates device read/write failures.
    pub(crate) fn run<R: Rng>(&mut self, ops: usize, rng: &mut R) -> Result<(), BlockError> {
        let mut buf = vec![0u8; self.block_bytes];
        for op in 0..ops {
            let zone = Self::ZONES[op % Self::ZONES.len()];
            let base = (op % Self::ZONES.len()) as u64 * self.zone_blocks;
            let lba = Lba(base + rng.random_range(0..self.zone_blocks));
            match zone {
                // In-place metadata-style update: flip a handful of
                // random bytes of an incompressible block.
                Zone::SparseBinary => {
                    self.device.read_block(lba, &mut buf)?;
                    let flips = rng.random_range(2..=8usize);
                    for _ in 0..flips {
                        let at = rng.random_range(0..self.block_bytes);
                        buf[at] ^= rng.random_range(1..=255u8);
                    }
                    self.device.write_block(lba, &buf)?;
                }
                Zone::RewriteText => {
                    self.device
                        .write_block(lba, prose(rng, self.block_bytes).as_bytes())?;
                }
                Zone::RewriteBinary => {
                    random_fill(rng, &mut buf);
                    self.device.write_block(lba, &buf)?;
                }
            }
            self.ops_run += 1;
        }
        self.device.flush()
    }

    /// Writes performed by [`run`](Self::run) so far.
    pub(crate) fn ops_run(&self) -> u64 {
        self.ops_run
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, InstrumentedDevice, MemDevice};
    use prins_compress::{Codec, Lzss};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(11)
    }

    #[test]
    fn text_store_writes_are_dense_and_compressible() {
        let device = Arc::new(InstrumentedDevice::new(MemDevice::new(
            BlockSize::kb4(),
            32,
        )));
        let mut r = rng();
        let mut store =
            TextStore::setup(Arc::clone(&device) as Arc<dyn BlockDevice>, 16, &mut r).unwrap();
        let dense = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let packed_small = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (d, p) = (Arc::clone(&dense), Arc::clone(&packed_small));
        device.set_observer(Box::new(move |_, old, new| {
            let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
            if changed * 2 > new.len() {
                d.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
            if Lzss::default().compress(new).len() * 2 < new.len() {
                p.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }));
        store.run(12, &mut r).unwrap();
        assert_eq!(store.ops_run(), 12);
        // Every rewrite changes most of the block and compresses >2x.
        assert_eq!(dense.load(std::sync::atomic::Ordering::Relaxed), 12);
        assert_eq!(packed_small.load(std::sync::atomic::Ordering::Relaxed), 12);
    }

    #[test]
    fn hostile_mix_hits_all_three_zones_with_their_patterns() {
        let device = Arc::new(InstrumentedDevice::new(MemDevice::new(
            BlockSize::kb4(),
            48,
        )));
        let mut r = rng();
        let mut mix =
            HostileMix::setup(Arc::clone(&device) as Arc<dyn BlockDevice>, 16, &mut r).unwrap();
        let zones = Arc::new(std::sync::Mutex::new([0u64; 3]));
        let sparse_in_zone0 = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let (z, s) = (Arc::clone(&zones), Arc::clone(&sparse_in_zone0));
        device.set_observer(Box::new(move |lba, old, new| {
            let zone = (lba.0 / 16) as usize;
            z.lock().unwrap()[zone] += 1;
            let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
            if zone == 0 && changed <= 8 {
                s.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            }
        }));
        mix.run(30, &mut r).unwrap();
        let counts = *zones.lock().unwrap();
        assert_eq!(counts, [10, 10, 10], "round-robin across zones");
        assert_eq!(
            sparse_in_zone0.load(std::sync::atomic::Ordering::Relaxed),
            10,
            "zone 0 writes flip at most 8 bytes"
        );
    }
}
