//! The slotted page: the on-disk layout real DBMSs use.
//!
//! ```text
//! ┌────────────────────────── page header (24 B) ──────────────────────────┐
//! │ magic(2) page_id(4) slot_count(2) free_start(2) free_end(2) lsn(8)     │
//! │ checksum(4)                                                            │
//! ├──────────── slot directory (4 B per slot, grows forward) ──────────────┤
//! │ (offset u16, len u16) (offset u16, len u16) …                          │
//! │                     ── free space ──                                   │
//! │                              … tuple data (grows backward from end)    │
//! └─────────────────────────────────────────────────────────────────────────┘
//! ```
//!
//! Every mutation bumps the LSN and refreshes the checksum — the header
//! churn that makes even a one-byte row update touch ~14 header bytes,
//! exactly the behaviour PRINS exploits (small, localized block deltas).

use crate::table::StoreError;

/// Index of a page within a table's file / device.
pub(crate) type PageId = u32;

/// Index of a slot within a page.
pub(crate) type SlotId = u16;

const MAGIC: u16 = 0x5047; // "PG"
const HEADER: usize = 24;
const SLOT_BYTES: usize = 4;

/// A mutable view over one page-sized buffer.
///
/// The page does not own its bytes; the [`BufferPool`](crate::BufferPool)
/// does. See the [module docs](self) for the layout.
pub(crate) struct SlottedPage<'a> {
    buf: &'a mut [u8],
}

impl<'a> SlottedPage<'a> {
    /// Wraps an existing initialized page.
    ///
    /// # Panics
    ///
    /// Panics if the buffer is smaller than the header plus one slot —
    /// pages always come from a device with a validated block size.
    pub(crate) fn new(buf: &'a mut [u8]) -> Self {
        assert!(buf.len() >= HEADER + SLOT_BYTES, "page buffer too small");
        Self { buf }
    }

    /// Formats the buffer as an empty page.
    pub(crate) fn init(buf: &'a mut [u8], page_id: PageId) -> Self {
        let len = buf.len();
        assert!(len >= HEADER + SLOT_BYTES, "page buffer too small");
        assert!(len <= u16::MAX as usize + 1, "page larger than u16 space");
        buf.fill(0);
        let mut page = Self { buf };
        page.set_u16(0, MAGIC);
        page.set_u32(2, page_id);
        page.set_u16(6, 0); // slot_count
        page.set_u16(8, HEADER as u16); // free_start
        page.set_u16(10, (len - 1) as u16); // free_end (inclusive-ish, see accessors)
        page.touch();
        page
    }

    fn get_u16(&self, at: usize) -> u16 {
        u16::from_le_bytes([self.buf[at], self.buf[at + 1]])
    }

    fn set_u16(&mut self, at: usize, v: u16) {
        self.buf[at..at + 2].copy_from_slice(&v.to_le_bytes());
    }

    fn get_u32(&self, at: usize) -> u32 {
        u32::from_le_bytes(self.buf[at..at + 4].try_into().unwrap())
    }

    fn set_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// The page's id, as recorded in its header.
    pub(crate) fn page_id(&self) -> PageId {
        self.get_u32(2)
    }

    /// Number of slots (including dead ones).
    pub(crate) fn slot_count(&self) -> u16 {
        self.get_u16(6)
    }

    /// The page LSN (bumped on every mutation).
    pub(crate) fn lsn(&self) -> u64 {
        u64::from_le_bytes(self.buf[12..20].try_into().unwrap())
    }

    fn free_start(&self) -> usize {
        self.get_u16(8) as usize
    }

    fn free_end(&self) -> usize {
        self.get_u16(10) as usize + 1
    }

    /// Contiguous free bytes between the slot directory and tuple data.
    pub(crate) fn free_space(&self) -> usize {
        self.free_end().saturating_sub(self.free_start())
    }

    /// Whether a tuple of `len` bytes (plus its slot) fits.
    pub(crate) fn fits(&self, len: usize) -> bool {
        self.free_space() >= len + SLOT_BYTES
    }

    /// Bumps the LSN and refreshes the header checksum — the metadata
    /// churn every real page write exhibits.
    fn touch(&mut self) {
        let lsn = self.lsn().wrapping_add(1);
        self.buf[12..20].copy_from_slice(&lsn.to_le_bytes());
        let mut h: u32 = 0x811c_9dc5;
        for &b in &self.buf[0..20] {
            h = (h ^ b as u32).wrapping_mul(0x0100_0193);
        }
        self.set_u32(20, h);
    }

    fn slot_at(&self, slot: SlotId) -> (usize, usize) {
        let base = HEADER + slot as usize * SLOT_BYTES;
        (self.get_u16(base) as usize, self.get_u16(base + 2) as usize)
    }

    fn set_slot(&mut self, slot: SlotId, offset: usize, len: usize) {
        let base = HEADER + slot as usize * SLOT_BYTES;
        self.set_u16(base, offset as u16);
        self.set_u16(base + 2, len as u16);
    }

    /// Inserts a tuple, returning its slot.
    ///
    /// # Errors
    ///
    /// [`StoreError::PageFull`] when the tuple plus a slot entry does not
    /// fit; [`StoreError::TupleTooLarge`] for zero-length or oversized
    /// tuples.
    pub(crate) fn insert(&mut self, tuple: &[u8]) -> Result<SlotId, StoreError> {
        if tuple.is_empty() || tuple.len() > u16::MAX as usize {
            return Err(StoreError::TupleTooLarge { len: tuple.len() });
        }
        if !self.fits(tuple.len()) {
            return Err(StoreError::PageFull {
                page: self.page_id(),
                needed: tuple.len() + SLOT_BYTES,
                free: self.free_space(),
            });
        }
        let slot = self.slot_count();
        let new_end = self.free_end() - tuple.len();
        self.buf[new_end..new_end + tuple.len()].copy_from_slice(tuple);
        self.set_slot(slot, new_end, tuple.len());
        self.set_u16(6, slot + 1);
        self.set_u16(8, (HEADER + (slot as usize + 1) * SLOT_BYTES) as u16);
        self.set_u16(10, (new_end - 1) as u16);
        self.touch();
        Ok(slot)
    }

    /// Overwrites the tuple in `slot`.
    ///
    /// Shrinking or equal-size updates happen in place (leaving stale
    /// bytes behind, as real engines do); growing updates relocate the
    /// tuple within the page if space allows.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`] / [`StoreError::PageFull`] /
    /// [`StoreError::TupleTooLarge`].
    pub(crate) fn update(&mut self, slot: SlotId, tuple: &[u8]) -> Result<(), StoreError> {
        if tuple.is_empty() || tuple.len() > u16::MAX as usize {
            return Err(StoreError::TupleTooLarge { len: tuple.len() });
        }
        if slot >= self.slot_count() {
            return Err(StoreError::NoSuchSlot {
                page: self.page_id(),
                slot,
            });
        }
        let (offset, len) = self.slot_at(slot);
        if len == 0 {
            return Err(StoreError::NoSuchSlot {
                page: self.page_id(),
                slot,
            });
        }
        if tuple.len() <= len {
            self.buf[offset..offset + tuple.len()].copy_from_slice(tuple);
            self.set_slot(slot, offset, tuple.len());
        } else {
            if self.free_space() < tuple.len() {
                return Err(StoreError::PageFull {
                    page: self.page_id(),
                    needed: tuple.len(),
                    free: self.free_space(),
                });
            }
            let new_end = self.free_end() - tuple.len();
            self.buf[new_end..new_end + tuple.len()].copy_from_slice(tuple);
            self.set_slot(slot, new_end, tuple.len());
            self.set_u16(10, (new_end - 1) as u16);
        }
        self.touch();
        Ok(())
    }

    /// Deletes the tuple in `slot` (the slot becomes dead; its bytes
    /// stay behind as a hole, as in real engines).
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`].
    pub(crate) fn delete(&mut self, slot: SlotId) -> Result<(), StoreError> {
        if slot >= self.slot_count() || self.slot_at(slot).1 == 0 {
            return Err(StoreError::NoSuchSlot {
                page: self.page_id(),
                slot,
            });
        }
        let (offset, _) = self.slot_at(slot);
        self.set_slot(slot, offset, 0);
        self.touch();
        Ok(())
    }

    /// Reads the tuple in `slot` from an immutable page buffer.
    ///
    /// Reads go through a shared buffer-pool view, so they must not
    /// dirty the page.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`] for out-of-range or deleted slots.
    pub(crate) fn read_from(buf: &[u8], slot: SlotId) -> Result<&[u8], StoreError> {
        let page_id = u32::from_le_bytes(buf[2..6].try_into().unwrap());
        let count = u16::from_le_bytes([buf[6], buf[7]]);
        if slot >= count {
            return Err(StoreError::NoSuchSlot {
                page: page_id,
                slot,
            });
        }
        let base = HEADER + slot as usize * SLOT_BYTES;
        let offset = u16::from_le_bytes([buf[base], buf[base + 1]]) as usize;
        let len = u16::from_le_bytes([buf[base + 2], buf[base + 3]]) as usize;
        if len == 0 {
            return Err(StoreError::NoSuchSlot {
                page: page_id,
                slot,
            });
        }
        Ok(&buf[offset..offset + len])
    }
}

impl std::fmt::Debug for SlottedPage<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlottedPage")
            .field("page_id", &self.page_id())
            .field("slots", &self.slot_count())
            .field("free", &self.free_space())
            .field("lsn", &self.lsn())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn page_buf(size: usize) -> Vec<u8> {
        vec![0u8; size]
    }

    fn read<'p>(page: &'p SlottedPage<'_>, slot: SlotId) -> Result<&'p [u8], StoreError> {
        SlottedPage::read_from(page.buf, slot)
    }

    #[test]
    fn init_produces_empty_page() {
        let mut buf = page_buf(4096);
        let page = SlottedPage::init(&mut buf, 7);
        assert_eq!(page.page_id(), 7);
        assert_eq!(page.slot_count(), 0);
        assert_eq!(page.free_space(), 4096 - HEADER);
    }

    #[test]
    fn insert_read_roundtrip() {
        let mut buf = page_buf(4096);
        let mut page = SlottedPage::init(&mut buf, 0);
        let a = page.insert(b"hello").unwrap();
        let b = page.insert(b"world!").unwrap();
        assert_eq!(read(&page, a).unwrap(), b"hello");
        assert_eq!(read(&page, b).unwrap(), b"world!");
        assert_eq!(page.slot_count(), 2);
    }

    #[test]
    fn lsn_churns_on_every_mutation() {
        let mut buf = page_buf(4096);
        let mut page = SlottedPage::init(&mut buf, 0);
        let lsn0 = page.lsn();
        let slot = page.insert(b"x").unwrap();
        let lsn1 = page.lsn();
        page.update(slot, b"y").unwrap();
        let lsn2 = page.lsn();
        assert!(lsn0 < lsn1 && lsn1 < lsn2);
    }

    #[test]
    fn update_in_place_and_growing() {
        let mut buf = page_buf(4096);
        let mut page = SlottedPage::init(&mut buf, 0);
        let slot = page.insert(&[7u8; 100]).unwrap();
        // shrink in place
        page.update(slot, &[8u8; 50]).unwrap();
        assert_eq!(read(&page, slot).unwrap(), &[8u8; 50][..]);
        // grow: relocate
        page.update(slot, &[9u8; 200]).unwrap();
        assert_eq!(read(&page, slot).unwrap(), &[9u8; 200][..]);
    }

    #[test]
    fn small_update_changes_small_fraction_of_page() {
        // The property the whole paper rests on.
        let mut buf = page_buf(8192);
        let mut page = SlottedPage::init(&mut buf, 0);
        let mut slots = Vec::new();
        for i in 0..50u16 {
            slots.push(page.insert(&[i as u8; 120]).unwrap());
        }
        let before = buf.to_vec();
        let mut page = SlottedPage::new(&mut buf);
        page.update(slots[25], &[0xff; 120]).unwrap();
        let changed = before
            .iter()
            .zip(buf.iter())
            .filter(|(a, b)| a != b)
            .count();
        let ratio = changed as f64 / 8192.0;
        assert!(
            ratio > 0.005 && ratio < 0.05,
            "one-row update changed {:.1}% of the page",
            ratio * 100.0
        );
    }

    #[test]
    fn page_full_is_reported() {
        let mut buf = page_buf(512);
        let mut page = SlottedPage::init(&mut buf, 3);
        let mut inserted = 0;
        loop {
            match page.insert(&[1u8; 64]) {
                Ok(_) => inserted += 1,
                Err(StoreError::PageFull { page: p, .. }) => {
                    assert_eq!(p, 3);
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(inserted >= 6);
    }

    #[test]
    fn delete_then_read_fails() {
        let mut buf = page_buf(512);
        let mut page = SlottedPage::init(&mut buf, 0);
        let a = page.insert(&[1u8; 100]).unwrap();
        let b = page.insert(&[2u8; 100]).unwrap();
        page.delete(a).unwrap();
        assert!(read(&page, a).is_err());
        assert_eq!(read(&page, b).unwrap(), &[2u8; 100][..]);
    }

    #[test]
    fn zero_and_oversized_tuples_rejected() {
        let mut buf = page_buf(512);
        let mut page = SlottedPage::init(&mut buf, 0);
        assert!(matches!(
            page.insert(b""),
            Err(StoreError::TupleTooLarge { .. })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn prop_page_operations_preserve_tuples(ops in proptest::collection::vec(
            (0u8..3, proptest::collection::vec(any::<u8>(), 1..64)), 1..60)) {
            let mut buf = page_buf(2048);
            let mut page = SlottedPage::init(&mut buf, 1);
            // Shadow model: map slot -> expected tuple.
            let mut model: std::collections::HashMap<SlotId, Vec<u8>> = Default::default();
            for (op, data) in ops {
                match op {
                    0 => {
                        if let Ok(slot) = page.insert(&data) {
                            model.insert(slot, data);
                        }
                    }
                    1 => {
                        if let Some(&slot) = model.keys().next() {
                            if page.update(slot, &data).is_ok() {
                                model.insert(slot, data);
                            }
                        }
                    }
                    _ => {
                        if let Some(&slot) = model.keys().next() {
                            page.delete(slot).unwrap();
                            model.remove(&slot);
                        }
                    }
                }
                // Every live tuple matches the model.
                for (slot, expected) in &model {
                    prop_assert_eq!(read(&page, *slot).unwrap(), &expected[..]);
                }
            }
        }
    }
}
