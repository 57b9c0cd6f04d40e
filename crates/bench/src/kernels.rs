//! Measured micro-kernel experiment: batch-aware sealing versus the
//! per-frame byte-at-a-time sealing it replaced.
//!
//! The criterion series in `benches/kernels.rs` plots the full width
//! sweep; this module is the self-checking form — a wall-clock
//! comparison over identical payloads whose `>= 2x` claim runs in the
//! release test suite (`cargo test --release`), like the pipeline
//! speedup test in [`crate::pipeline_experiment`].

use std::fmt;
use std::time::Instant;

use prins_parity::encode_varint;
use prins_repl::{seal_batch_frame_into, SEAL_TAG};

/// Wall-clock comparison of sealing one batch of payloads.
#[derive(Clone, Debug)]
pub struct SealMeasurement {
    /// Payloads per batch frame.
    pub frames: usize,
    /// Total payload bytes sealed per iteration.
    pub payload_bytes: usize,
    /// Best-of-N nanos for the per-frame byte-at-a-time baseline.
    pub per_frame_scalar_nanos: u64,
    /// Best-of-N nanos for one batch-sealing pass (the library's
    /// `crc32c`).
    pub batch_nanos: u64,
}

impl SealMeasurement {
    /// How many times faster the batch-seal pass is.
    pub fn speedup(&self) -> f64 {
        self.per_frame_scalar_nanos as f64 / (self.batch_nanos.max(1)) as f64
    }
}

impl fmt::Display for SealMeasurement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "seal {} x {} B: per-frame scalar {} ns, batch {} ns ({:.2}x)",
            self.frames,
            self.payload_bytes / self.frames.max(1),
            self.per_frame_scalar_nanos,
            self.batch_nanos,
            self.speedup()
        )
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

/// The sealing the sender lanes performed before batch-aware sealing:
/// one envelope per payload, checksummed byte-at-a-time.
fn seal_per_frame_scalar(epoch: u64, payloads: &[Vec<u8>], out: &mut Vec<u8>) {
    for inner in payloads {
        out.push(SEAL_TAG);
        encode_varint(out, epoch);
        let crc = crc32c_scalar_append(crc32c_scalar(&epoch.to_le_bytes()), inner);
        out.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(inner);
    }
}

fn best_of(iters: u32, mut run: impl FnMut()) -> u64 {
    let mut best = u64::MAX;
    for _ in 0..iters.max(1) {
        let t0 = Instant::now();
        run();
        best = best.min(t0.elapsed().as_nanos() as u64);
    }
    best
}

/// Seals `frames` 4 KB payloads both ways and returns the timings.
pub fn seal_experiment(frames: usize, iters: u32) -> SealMeasurement {
    let payloads: Vec<Vec<u8>> = (0..frames)
        .map(|i| {
            (0..4096usize)
                .map(|j| (i as u8).wrapping_mul(31).wrapping_add(j as u8))
                .collect()
        })
        .collect();
    let payload_bytes = payloads.iter().map(Vec::len).sum();
    let mut out = Vec::with_capacity(payload_bytes + 16 * frames);

    let per_frame_scalar_nanos = best_of(iters, || {
        out.clear();
        seal_per_frame_scalar(1, &payloads, &mut out);
    });
    let batch_nanos = best_of(iters, || {
        out.clear();
        seal_batch_frame_into(1, &payloads, &mut out);
    });
    SealMeasurement {
        frames,
        payload_bytes,
        per_frame_scalar_nanos,
        batch_nanos,
    }
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
    fn measurement_reports_both_sides() {
        let m = seal_experiment(8, 3);
        assert_eq!(m.frames, 8);
        assert_eq!(m.payload_bytes, 8 * 4096);
        assert!(m.per_frame_scalar_nanos > 0 && m.batch_nanos > 0);
        assert!(m.to_string().contains("batch"));
    }

    // Wall-clock assertion: meaningless under an unoptimized build, so
    // it only runs in the release suite.
    #[cfg(not(debug_assertions))]
    #[test]
    fn batch_seal_beats_per_frame_scalar_by_2x() {
        let m = seal_experiment(32, 20);
        assert!(m.speedup() >= 2.0, "batch seal must be >=2x: {m}");
    }
}
