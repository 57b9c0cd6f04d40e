//! Block-addressing primitives: block sizes, logical block addresses and
//! LBA ranges.

use std::fmt;

use crate::{BlockError, Result};

/// Size of one block in bytes.
///
/// The paper evaluates block sizes from 4 KB to 64 KB; real SCSI devices go
/// down to 512-byte sectors. We accept any power of two in
/// `[512, 1 MiB]` so tests can exercise odd corners without allowing
/// nonsensical geometry.
///
/// # Example
///
/// ```
/// use prins_block::BlockSize;
///
/// # fn main() -> Result<(), prins_block::BlockError> {
/// let bs = BlockSize::new(8192)?;
/// assert_eq!(bs.bytes(), 8192);
/// assert!(BlockSize::new(1000).is_err()); // not a power of two
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockSize(u32);

impl BlockSize {
    /// Smallest supported block size (one legacy disk sector).
    pub const MIN: u32 = 512;
    /// Largest supported block size.
    pub const MAX: u32 = 1 << 20;

    /// Creates a block size, validating that `bytes` is a power of two in
    /// `[512, 1 MiB]`.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::InvalidBlockSize`] when `bytes` is outside the
    /// supported range or not a power of two.
    pub fn new(bytes: u32) -> Result<Self> {
        if !(Self::MIN..=Self::MAX).contains(&bytes) || !bytes.is_power_of_two() {
            return Err(BlockError::InvalidBlockSize { bytes });
        }
        Ok(Self(bytes))
    }

    /// The canonical 4 KB block size.
    pub const fn kb4() -> Self {
        Self(4 * 1024)
    }

    /// The paper's headline 8 KB block size ("typical in commercial
    /// applications").
    pub const fn kb8() -> Self {
        Self(8 * 1024)
    }

    /// 16 KB blocks.
    pub(crate) const fn kb16() -> Self {
        Self(16 * 1024)
    }

    /// 32 KB blocks.
    pub(crate) const fn kb32() -> Self {
        Self(32 * 1024)
    }

    /// The paper's largest evaluated block size, 64 KB.
    pub const fn kb64() -> Self {
        Self(64 * 1024)
    }

    /// Size in bytes.
    pub const fn bytes(self) -> usize {
        self.0 as usize
    }

    /// Size in bytes as `u32` (handy for wire formats).
    pub const fn bytes_u32(self) -> u32 {
        self.0
    }

    /// log2 of the size; exact because the size is a power of two.
    pub(crate) const fn log2(self) -> u32 {
        self.0.trailing_zeros()
    }

    /// Allocates a zero-filled buffer of exactly one block.
    pub fn zeroed(self) -> Vec<u8> {
        vec![0u8; self.bytes()]
    }

    /// The five block sizes swept by the paper's traffic figures
    /// (Figures 4–7): 4, 8, 16, 32 and 64 KB.
    pub const fn paper_sweep() -> [BlockSize; 5] {
        [
            Self::kb4(),
            Self::kb8(),
            Self::kb16(),
            Self::kb32(),
            Self::kb64(),
        ]
    }
}

impl fmt::Debug for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "BlockSize({})", self.0)
    }
}

impl fmt::Display for BlockSize {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0.is_multiple_of(1024) {
            write!(f, "{}KB", self.0 / 1024)
        } else {
            write!(f, "{}B", self.0)
        }
    }
}

impl TryFrom<u32> for BlockSize {
    type Error = BlockError;

    fn try_from(bytes: u32) -> Result<Self> {
        Self::new(bytes)
    }
}

impl From<BlockSize> for u32 {
    fn from(bs: BlockSize) -> u32 {
        bs.0
    }
}

/// A logical block address: the index of a block on a device.
///
/// Plain `u64` indices are easy to confuse with byte offsets or stripe
/// numbers; the newtype keeps those spaces statically apart
/// (API guideline C-NEWTYPE).
#[derive(Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Lba(pub u64);

impl Lba {
    /// Block address zero.
    pub const ZERO: Lba = Lba(0);

    /// The raw index.
    pub const fn index(self) -> u64 {
        self.0
    }

    /// Address of the block `n` places after this one.
    ///
    /// # Panics
    ///
    /// Panics on `u64` overflow, which would indicate a corrupted address
    /// computation rather than a recoverable condition.
    pub(crate) fn offset(self, n: u64) -> Lba {
        Lba(self.0.checked_add(n).expect("LBA overflow"))
    }

    /// Byte offset of this block on a device with the given block size.
    pub(crate) fn byte_offset(self, bs: BlockSize) -> u64 {
        self.0 << bs.log2()
    }
}

impl fmt::Debug for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Lba({})", self.0)
    }
}

impl fmt::Display for Lba {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl From<u64> for Lba {
    fn from(v: u64) -> Self {
        Lba(v)
    }
}

impl From<Lba> for u64 {
    fn from(l: Lba) -> u64 {
        l.0
    }
}

/// A half-open range of logical block addresses `[start, end)`.
///
/// # Example
///
/// ```
/// use prins_block::{BlockSize, Geometry, Lba};
///
/// let r = Geometry::new(BlockSize::kb4(), 3).range();
/// let collected: Vec<_> = r.iter().collect();
/// assert_eq!(collected, vec![Lba(0), Lba(1), Lba(2)]);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct LbaRange {
    start: Lba,
    end: Lba,
}

impl LbaRange {
    /// Creates the range `[start, end)`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub(crate) fn new(start: Lba, end: Lba) -> Self {
        assert!(start <= end, "LbaRange start {start} after end {end}");
        Self { start, end }
    }

    /// Range covering `count` blocks starting at `start`.
    pub(crate) fn with_len(start: Lba, count: u64) -> Self {
        Self::new(start, start.offset(count))
    }

    /// Iterates over every address in the range.
    pub fn iter(self) -> impl Iterator<Item = Lba> {
        (self.start.0..self.end.0).map(Lba)
    }
}

/// The shape of a block device: its block size and capacity in blocks.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Geometry {
    block_size: BlockSize,
    num_blocks: u64,
}

impl Geometry {
    /// Creates a geometry of `num_blocks` blocks of `block_size` each.
    pub fn new(block_size: BlockSize, num_blocks: u64) -> Self {
        Self {
            block_size,
            num_blocks,
        }
    }

    /// Block size of the device.
    pub const fn block_size(self) -> BlockSize {
        self.block_size
    }

    /// Capacity in blocks.
    pub const fn num_blocks(self) -> u64 {
        self.num_blocks
    }

    /// Capacity in bytes.
    pub(crate) const fn capacity_bytes(self) -> u64 {
        self.num_blocks * self.block_size.bytes() as u64
    }

    /// The full addressable range `[0, num_blocks)`.
    pub fn range(self) -> LbaRange {
        LbaRange::with_len(Lba::ZERO, self.num_blocks)
    }

    /// Validates that `lba` is addressable on this geometry.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::OutOfRange`] when `lba` is past the end of the
    /// device.
    pub fn check_lba(self, lba: Lba) -> Result<()> {
        if lba.0 >= self.num_blocks {
            return Err(BlockError::OutOfRange {
                lba,
                num_blocks: self.num_blocks,
            });
        }
        Ok(())
    }

    /// Validates that `buf` is exactly one block long.
    ///
    /// # Errors
    ///
    /// Returns [`BlockError::BufferSize`] on any length mismatch.
    pub fn check_buf(self, buf: &[u8]) -> Result<()> {
        if buf.len() != self.block_size.bytes() {
            return Err(BlockError::BufferSize {
                expected: self.block_size.bytes(),
                actual: buf.len(),
            });
        }
        Ok(())
    }
}

impl fmt::Display for Geometry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} x {} blocks", self.block_size, self.num_blocks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn block_size_accepts_powers_of_two_in_range() {
        for shift in 9..=20 {
            let bytes = 1u32 << shift;
            assert_eq!(BlockSize::new(bytes).unwrap().bytes(), bytes as usize);
        }
    }

    #[test]
    fn block_size_rejects_out_of_range_and_non_powers() {
        assert!(BlockSize::new(256).is_err());
        assert!(BlockSize::new(0).is_err());
        assert!(BlockSize::new(3 * 1024).is_err());
        assert!(BlockSize::new(2 << 20).is_err());
    }

    #[test]
    fn block_size_display_uses_kb() {
        assert_eq!(BlockSize::kb8().to_string(), "8KB");
        assert_eq!(BlockSize::new(512).unwrap().to_string(), "512B");
    }

    #[test]
    fn paper_sweep_is_sorted_and_distinct() {
        let sweep = BlockSize::paper_sweep();
        for w in sweep.windows(2) {
            assert!(w[0] < w[1]);
        }
        assert_eq!(sweep[1], BlockSize::kb8());
        assert_eq!(sweep[4], BlockSize::kb64());
    }

    #[test]
    fn lba_byte_offset() {
        assert_eq!(Lba(3).byte_offset(BlockSize::kb4()), 3 * 4096);
        assert_eq!(Lba::ZERO.byte_offset(BlockSize::kb64()), 0);
    }

    #[test]
    #[should_panic(expected = "LBA overflow")]
    fn lba_offset_overflow_panics() {
        let _ = Lba(u64::MAX).offset(1);
    }

    #[test]
    fn range_iterates_its_addresses() {
        let r = LbaRange::with_len(Lba(5), 4);
        assert_eq!(
            r.iter().collect::<Vec<_>>(),
            [Lba(5), Lba(6), Lba(7), Lba(8)]
        );
        assert_eq!(LbaRange::new(Lba(2), Lba(2)).iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "start")]
    fn inverted_range_panics() {
        let _ = LbaRange::new(Lba(4), Lba(1));
    }

    #[test]
    fn geometry_checks() {
        let g = Geometry::new(BlockSize::kb4(), 10);
        assert_eq!(g.capacity_bytes(), 10 * 4096);
        assert!(g.check_lba(Lba(9)).is_ok());
        assert!(matches!(
            g.check_lba(Lba(10)),
            Err(BlockError::OutOfRange { .. })
        ));
        assert!(g.check_buf(&vec![0u8; 4096]).is_ok());
        assert!(matches!(
            g.check_buf(&[0u8; 100]),
            Err(BlockError::BufferSize { .. })
        ));
        assert_eq!(g.range().iter().count(), 10);
    }
}
