//! Heap tables: rows in slotted pages with free-space tracking.

use std::collections::BTreeMap;
use std::fmt;

use prins_block::BlockError;

use crate::page::{PageId, SlotId, SlottedPage};
use crate::profile::DbProfile;
use crate::row::Row;
use crate::BufferPool;

/// Errors from the page store.
#[derive(Debug)]
#[non_exhaustive]
pub enum StoreError {
    /// The underlying block device failed.
    Block(BlockError),
    /// A tuple does not fit in the page's free space.
    PageFull {
        /// Page that was full.
        page: PageId,
        /// Bytes the operation needed.
        needed: usize,
        /// Bytes available.
        free: usize,
    },
    /// A tuple is empty or exceeds the per-tuple limit.
    TupleTooLarge {
        /// Offending length.
        len: usize,
    },
    /// The slot does not exist or is deleted.
    NoSuchSlot {
        /// Page searched.
        page: PageId,
        /// Slot requested.
        slot: SlotId,
    },
    /// A stored tuple failed to decode.
    CorruptTuple {
        /// What went wrong.
        detail: String,
    },
    /// The backing device has no free pages left.
    DeviceFull {
        /// Device capacity in pages.
        pages: u64,
    },
    /// Every buffer-pool frame is pinned.
    PoolExhausted {
        /// Pool capacity in frames.
        capacity: usize,
    },
    /// A key was not found in an index.
    KeyNotFound {
        /// The missing key.
        key: u64,
    },
    /// A duplicate key was inserted into a unique index.
    DuplicateKey {
        /// The duplicated key.
        key: u64,
    },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Block(e) => write!(f, "device error: {e}"),
            StoreError::PageFull { page, needed, free } => {
                write!(f, "page {page} full: need {needed} bytes, {free} free")
            }
            StoreError::TupleTooLarge { len } => write!(f, "tuple of {len} bytes not storable"),
            StoreError::NoSuchSlot { page, slot } => {
                write!(f, "no live tuple at page {page} slot {slot}")
            }
            StoreError::CorruptTuple { detail } => write!(f, "corrupt tuple: {detail}"),
            StoreError::DeviceFull { pages } => {
                write!(f, "device full: all {pages} pages allocated")
            }
            StoreError::PoolExhausted { capacity } => {
                write!(f, "all {capacity} buffer frames pinned")
            }
            StoreError::KeyNotFound { key } => write!(f, "key {key} not found"),
            StoreError::DuplicateKey { key } => write!(f, "duplicate key {key}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Block(e) => Some(e),
            _ => None,
        }
    }
}

impl From<BlockError> for StoreError {
    fn from(e: BlockError) -> Self {
        StoreError::Block(e)
    }
}

/// Physical address of a row: `(page, slot)`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RecordId {
    /// Page holding the row.
    pub(crate) page: PageId,
    /// Slot within the page.
    pub(crate) slot: SlotId,
}

impl RecordId {
    /// Packs into a `u64` for storage in index leaves.
    pub(crate) fn to_u64(self) -> u64 {
        ((self.page as u64) << 16) | self.slot as u64
    }

    /// Unpacks from [`to_u64`](Self::to_u64) form.
    pub(crate) fn from_u64(v: u64) -> Self {
        Self {
            page: (v >> 16) as u32,
            slot: (v & 0xffff) as u16,
        }
    }
}

impl fmt::Display for RecordId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.page, self.slot)
    }
}

/// A heap table: an unordered collection of rows in slotted pages.
///
/// Pages are allocated from the shared [`BufferPool`]; an in-memory
/// free-space map routes inserts to pages with room (subject to the
/// profile's fill factor, mirroring Oracle's PCTFREE / InnoDB's 15/16
/// rule).
///
/// See the [crate docs](crate) for an example.
pub struct Table {
    pool: BufferPool,
    profile: DbProfile,
    pages: Vec<PageId>,
    /// page -> free bytes (maintained on every operation).
    fsm: BTreeMap<PageId, usize>,
    txn_counter: u64,
    rows: u64,
}

impl Table {
    /// Creates an empty table with a specific DBMS profile.
    ///
    /// # Errors
    ///
    /// Fails if the device is already full.
    pub fn with_profile(pool: &BufferPool, profile: DbProfile) -> Result<Self, StoreError> {
        let mut table = Self {
            pool: pool.clone(),
            profile,
            pages: Vec::new(),
            fsm: BTreeMap::new(),
            txn_counter: 0,
            rows: 0,
        };
        table.grow()?;
        Ok(table)
    }

    /// Number of live rows.
    pub fn len(&self) -> u64 {
        self.rows
    }

    /// Whether the table holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    fn grow(&mut self) -> Result<PageId, StoreError> {
        let pid = self.pool.allocate_page()?;
        let free = self.pool.with_page_mut(pid, |bytes| {
            let page = SlottedPage::init(bytes, pid);
            page.free_space()
        })?;
        self.pages.push(pid);
        self.fsm.insert(pid, free);
        Ok(pid)
    }

    fn next_txn(&mut self) -> u64 {
        self.txn_counter += 1;
        self.txn_counter
    }

    /// Inserts a row, returning its address.
    ///
    /// # Errors
    ///
    /// [`StoreError::DeviceFull`] when no page can hold the row;
    /// [`StoreError::TupleTooLarge`] if the encoded row exceeds a page.
    pub fn insert(&mut self, row: &Row) -> Result<RecordId, StoreError> {
        let mut row = row.clone();
        row.set_txn(self.next_txn());
        let tuple = row.encode(self.profile.row_header_pad());
        let reserve = self.profile.reserve_bytes(self.pool.page_size());

        // Find a page with room (checking the emptiest last-allocated
        // pages first keeps inserts clustered like real heap files).
        let candidate = self
            .pages
            .iter()
            .rev()
            .find(|pid| {
                self.fsm
                    .get(pid)
                    .is_some_and(|&free| free >= tuple.len() + 4 + reserve)
            })
            .copied();
        let pid = match candidate {
            Some(pid) => pid,
            None => self.grow()?,
        };
        let (slot, free) = self.pool.with_page_mut(pid, |bytes| {
            let mut page = SlottedPage::new(bytes);
            let slot = page.insert(&tuple)?;
            Ok::<_, StoreError>((slot, page.free_space()))
        })??;
        self.fsm.insert(pid, free);
        self.rows += 1;
        Ok(RecordId { page: pid, slot })
    }

    /// Fetches the row at `rid`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`] / [`StoreError::CorruptTuple`].
    pub fn get(&self, rid: RecordId) -> Result<Row, StoreError> {
        let pad = self.profile.row_header_pad();
        self.pool.with_page(rid.page, |bytes| {
            let tuple = SlottedPage::read_from(bytes, rid.slot)?;
            Row::decode(tuple, pad)
        })?
    }

    /// Replaces the row at `rid`, bumping its txn header.
    ///
    /// Returns the row's (possibly new) address: if the grown row no
    /// longer fits its page, it migrates to another page, like a
    /// Postgres cold update.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`] for dead rows, plus insert errors on
    /// migration.
    pub fn update(&mut self, rid: RecordId, row: &Row) -> Result<RecordId, StoreError> {
        let mut row = row.clone();
        row.set_txn(self.next_txn());
        let tuple = row.encode(self.profile.row_header_pad());
        let result = self.pool.with_page_mut(rid.page, |bytes| {
            let mut page = SlottedPage::new(bytes);
            let r = page.update(rid.slot, &tuple);
            (r, page.free_space())
        })?;
        match result {
            (Ok(()), free) => {
                self.fsm.insert(rid.page, free);
                Ok(rid)
            }
            (Err(StoreError::PageFull { .. }), _) => {
                // Cold update: delete here, insert elsewhere (the row
                // count nets out: delete -1, insert +1).
                self.delete(rid)?;
                let new_rid = self.insert_encoded(&tuple)?;
                Ok(new_rid)
            }
            (Err(e), _) => Err(e),
        }
    }

    fn insert_encoded(&mut self, tuple: &[u8]) -> Result<RecordId, StoreError> {
        let reserve = self.profile.reserve_bytes(self.pool.page_size());
        let candidate = self
            .pages
            .iter()
            .rev()
            .find(|pid| {
                self.fsm
                    .get(pid)
                    .is_some_and(|&free| free >= tuple.len() + 4 + reserve)
            })
            .copied();
        let pid = match candidate {
            Some(pid) => pid,
            None => self.grow()?,
        };
        let (slot, free) = self.pool.with_page_mut(pid, |bytes| {
            let mut page = SlottedPage::new(bytes);
            let slot = page.insert(tuple)?;
            Ok::<_, StoreError>((slot, page.free_space()))
        })??;
        self.fsm.insert(pid, free);
        self.rows += 1;
        Ok(RecordId { page: pid, slot })
    }

    /// Deletes the row at `rid`.
    ///
    /// # Errors
    ///
    /// [`StoreError::NoSuchSlot`] for rows that do not exist.
    pub fn delete(&mut self, rid: RecordId) -> Result<(), StoreError> {
        self.pool.with_page_mut(rid.page, |bytes| {
            let mut page = SlottedPage::new(bytes);
            page.delete(rid.slot)
        })??;
        self.rows -= 1;
        Ok(())
    }
}

impl fmt::Debug for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Table")
            .field("profile", &self.profile.name())
            .field("rows", &self.rows)
            .field("pages", &self.pages.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row::Value;
    use prins_block::{BlockSize, MemDevice};
    use std::sync::Arc;

    fn pool() -> BufferPool {
        BufferPool::new(Arc::new(MemDevice::new(BlockSize::kb8(), 512)), 64)
    }

    fn row(key: u64, text: &str) -> Row {
        Row::new(vec![
            Value::U64(key),
            Value::Str(text.to_string()),
            Value::F64(key as f64 * 1.5),
        ])
    }

    #[test]
    fn insert_get_roundtrip() {
        let pool = pool();
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        let rid = t.insert(&row(1, "hello")).unwrap();
        let got = t.get(rid).unwrap();
        assert_eq!(got.values()[0], Value::U64(1));
        assert_eq!(got.values()[1], Value::Str("hello".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn many_inserts_span_pages() {
        let pool = pool();
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        let mut rids = Vec::new();
        for i in 0..2000u64 {
            rids.push(t.insert(&row(i, "data-data-data-data-data")).unwrap());
        }
        assert!(t.pages.len() > 5, "2000 rows should span pages");
        for (i, rid) in rids.iter().enumerate() {
            assert_eq!(t.get(*rid).unwrap().values()[0], Value::U64(i as u64));
        }
    }

    #[test]
    fn update_in_place_and_migrating() {
        let pool = pool();
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        let rid = t.insert(&row(5, "short")).unwrap();
        // Same-size update stays put.
        let rid2 = t.update(rid, &row(5, "shirt")).unwrap();
        assert_eq!(rid, rid2);
        assert_eq!(t.get(rid2).unwrap().values()[1], Value::Str("shirt".into()));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn update_bumps_txn_header() {
        let pool = pool();
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        // The transaction header is the first 8 bytes of an encoded row.
        let txn = |r: &Row| u64::from_le_bytes(r.encode(0)[..8].try_into().unwrap());
        let rid = t.insert(&row(1, "x")).unwrap();
        let txn1 = txn(&t.get(rid).unwrap());
        let rid = t.update(rid, &row(1, "x")).unwrap();
        let txn2 = txn(&t.get(rid).unwrap());
        assert!(txn2 > txn1);
        assert_eq!(txn2, t.txn_counter);
    }

    #[test]
    fn migration_on_grown_row() {
        // Tiny pages force migration quickly.
        let pool = BufferPool::new(
            Arc::new(MemDevice::new(BlockSize::new(512).unwrap(), 256)),
            16,
        );
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        let mut rids: Vec<RecordId> = (0..4).map(|i| t.insert(&row(i, "aaaa")).unwrap()).collect();
        // Grow row 0 beyond its page's remaining space.
        let big = "B".repeat(300);
        rids[0] = t.update(rids[0], &row(0, &big)).unwrap();
        assert_eq!(t.get(rids[0]).unwrap().values()[1], Value::Str(big.clone()));
        assert_eq!(t.len(), 4);
        // All other rows intact.
        for (i, rid) in rids.iter().enumerate().skip(1) {
            assert_eq!(t.get(*rid).unwrap().values()[0], Value::U64(i as u64));
        }
    }

    #[test]
    fn delete_removes_row() {
        let pool = pool();
        let mut t = Table::with_profile(&pool, DbProfile::default()).unwrap();
        let rid = t.insert(&row(1, "x")).unwrap();
        t.delete(rid).unwrap();
        assert!(t.get(rid).is_err());
        assert!(t.is_empty());
        assert!(t.delete(rid).is_err());
    }

    #[test]
    fn profiles_change_tuple_size() {
        let pool = pool();
        let mut oracle = Table::with_profile(&pool, DbProfile::oracle()).unwrap();
        let mut postgres = Table::with_profile(&pool, DbProfile::postgres()).unwrap();
        // Same rows, postgres needs more pages per row count because of
        // wider headers — verify encoded sizes differ.
        let r = row(1, "hello");
        oracle.insert(&r).unwrap();
        postgres.insert(&r).unwrap();
        assert!(
            r.encode(DbProfile::postgres().row_header_pad()).len()
                > r.encode(DbProfile::oracle().row_header_pad()).len()
        );
    }

    #[test]
    fn record_id_packs() {
        let rid = RecordId {
            page: 0xabcd,
            slot: 0x1234,
        };
        assert_eq!(RecordId::from_u64(rid.to_u64()), rid);
    }
}
