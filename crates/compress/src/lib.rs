//! Lossless compression used by the "traditional replication with data
//! compression" baseline of the PRINS paper.
//!
//! The paper compresses replicated blocks with zlib (`[22]`). zlib is not
//! in this workspace's allowed dependency set, so we implement a
//! comparable general-purpose LZ77 family codec from scratch:
//!
//! * [`Lzss`] — greedy LZ77 with hash-chain match finding, a 32 KB window
//!   and a varint token stream. On database pages it reaches the ~2–4×
//!   ratios zlib gets; on text it does better, matching the paper's
//!   observation that the filesystem micro-benchmark (text files) is more
//!   compressible than database files.
//! * [`Rle`] — byte-level run-length encoding, used as a cheap fast path
//!   and as a baseline in ablation benches.
//!
//! Both implement the [`Codec`] trait so the replication layer can swap
//! them.
//!
//! # Example
//!
//! ```
//! use prins_compress::{Codec, Lzss};
//!
//! # fn main() -> Result<(), prins_compress::CompressError> {
//! let codec = Lzss::default();
//! let data = b"the quick brown fox jumps over the lazy dog. \
//!              the quick brown fox jumps over the lazy dog.".to_vec();
//! let packed = codec.compress(&data);
//! assert!(packed.len() < data.len());
//! assert_eq!(codec.decompress(&packed, data.len())?, data);
//! # Ok(())
//! # }
//! ```

mod error;
mod lzss;
mod rle;

pub use error::CompressError;
pub use lzss::{Abandoned, Lzss, MAX_DECODE_LEN};
pub use rle::Rle;

/// A lossless block codec.
///
/// Implementations must be deterministic and must round-trip every input
/// (`decompress(compress(x)) == x`); there is no requirement that the
/// output be smaller than the input (incompressible data may expand
/// slightly, as with any entropy-less LZ format).
pub trait Codec: Send + Sync {
    /// Compresses `data` into a self-describing byte stream.
    fn compress(&self, data: &[u8]) -> Vec<u8>;

    /// Decompresses `data`, verifying the result is exactly
    /// `expected_len` bytes.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError`] when the stream is malformed, truncated,
    /// or decodes to the wrong length.
    fn decompress(&self, data: &[u8], expected_len: usize) -> Result<Vec<u8>, CompressError>;

    /// Short human-readable codec name for reports.
    fn name(&self) -> &'static str;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_trait_is_object_safe() {
        let codecs: Vec<Box<dyn Codec>> = vec![Box::new(Lzss::default()), Box::new(Rle)];
        for c in &codecs {
            let data = b"abcabcabcabc".to_vec();
            let packed = c.compress(&data);
            assert_eq!(c.decompress(&packed, data.len()).unwrap(), data);
            assert!(!c.name().is_empty());
        }
    }
}
