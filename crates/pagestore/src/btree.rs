//! An on-page B-tree index mapping `u64` keys to [`RecordId`]s.
//!
//! Node layout (within one page):
//!
//! ```text
//! byte 0      node type: 1 = leaf, 2 = internal
//! bytes 1-2   entry count (u16)
//! bytes 3-6   leaf: next-leaf page id + 1 (0 = none)
//!             internal: leftmost child page id
//! bytes 7..   entries:
//!             leaf:     (key u64, packed RecordId u64)  = 16 bytes
//!             internal: (key u64, child PageId u32)     = 12 bytes
//! ```
//!
//! Nodes are (de)serialized whole through the buffer pool — the tree
//! never holds two pages at once, so it composes with the pool's single
//! internal lock. Deletes do not rebalance (standard for workload
//! generators; lookups and scans remain correct).

use crate::bufpool::BufferPool;
use crate::page::PageId;
use crate::table::{RecordId, StoreError};

const HDR: usize = 7;
const LEAF_ENTRY: usize = 16;
const INTERNAL_ENTRY: usize = 12;

enum Node {
    Leaf {
        next: Option<PageId>,
        entries: Vec<(u64, u64)>,
    },
    Internal {
        leftmost: PageId,
        entries: Vec<(u64, PageId)>,
    },
}

/// A unique B-tree index over `u64` keys.
///
/// # Example
///
/// ```
/// use prins_block::{BlockSize, MemDevice};
/// use prins_pagestore::{BTree, BufferPool, DbProfile, Row, Table, Value};
/// use std::sync::Arc;
///
/// # fn main() -> Result<(), prins_pagestore::StoreError> {
/// let pool = BufferPool::new(Arc::new(MemDevice::new(BlockSize::kb8(), 128)), 16);
/// let mut table = Table::with_profile(&pool, DbProfile::oracle())?;
/// let rid = table.insert(&Row::new(vec![Value::U64(42)]))?;
/// let mut index = BTree::create(&pool)?;
/// index.insert(42, rid)?;
/// assert_eq!(index.get(42)?, Some(rid));
/// assert_eq!(index.get(43)?, None);
/// # Ok(())
/// # }
/// ```
pub struct BTree {
    pool: BufferPool,
    root: PageId,
    len: u64,
}

impl BTree {
    /// Creates an empty index, allocating its root page from `pool`.
    ///
    /// # Errors
    ///
    /// Fails when the device is full.
    pub fn create(pool: &BufferPool) -> Result<Self, StoreError> {
        let root = pool.allocate_page()?;
        let tree = Self {
            pool: pool.clone(),
            root,
            len: 0,
        };
        tree.write_node(
            root,
            &Node::Leaf {
                next: None,
                entries: Vec::new(),
            },
        )?;
        Ok(tree)
    }

    fn leaf_capacity(&self) -> usize {
        (self.pool.page_size() - HDR) / LEAF_ENTRY
    }

    fn internal_capacity(&self) -> usize {
        (self.pool.page_size() - HDR) / INTERNAL_ENTRY
    }

    fn read_node(&self, pid: PageId) -> Result<Node, StoreError> {
        self.pool.with_page(pid, |bytes| {
            let kind = bytes[0];
            let count = u16::from_le_bytes([bytes[1], bytes[2]]) as usize;
            let extra = u32::from_le_bytes(bytes[3..7].try_into().unwrap());
            match kind {
                1 => {
                    let mut entries = Vec::with_capacity(count);
                    for i in 0..count {
                        let at = HDR + i * LEAF_ENTRY;
                        let key = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                        let rid = u64::from_le_bytes(bytes[at + 8..at + 16].try_into().unwrap());
                        entries.push((key, rid));
                    }
                    Ok(Node::Leaf {
                        next: (extra != 0).then(|| extra - 1),
                        entries,
                    })
                }
                2 => {
                    let mut entries = Vec::with_capacity(count);
                    for i in 0..count {
                        let at = HDR + i * INTERNAL_ENTRY;
                        let key = u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
                        let child = u32::from_le_bytes(bytes[at + 8..at + 12].try_into().unwrap());
                        entries.push((key, child));
                    }
                    Ok(Node::Internal {
                        leftmost: extra,
                        entries,
                    })
                }
                other => Err(StoreError::CorruptTuple {
                    detail: format!("invalid btree node type {other} at page {pid}"),
                }),
            }
        })?
    }

    fn write_node(&self, pid: PageId, node: &Node) -> Result<(), StoreError> {
        self.pool.with_page_mut(pid, |bytes| {
            bytes.fill(0);
            match node {
                Node::Leaf { next, entries } => {
                    bytes[0] = 1;
                    bytes[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                    bytes[3..7].copy_from_slice(&next.map_or(0, |n| n + 1).to_le_bytes());
                    for (i, (key, rid)) in entries.iter().enumerate() {
                        let at = HDR + i * LEAF_ENTRY;
                        bytes[at..at + 8].copy_from_slice(&key.to_le_bytes());
                        bytes[at + 8..at + 16].copy_from_slice(&rid.to_le_bytes());
                    }
                }
                Node::Internal { leftmost, entries } => {
                    bytes[0] = 2;
                    bytes[1..3].copy_from_slice(&(entries.len() as u16).to_le_bytes());
                    bytes[3..7].copy_from_slice(&leftmost.to_le_bytes());
                    for (i, (key, child)) in entries.iter().enumerate() {
                        let at = HDR + i * INTERNAL_ENTRY;
                        bytes[at..at + 8].copy_from_slice(&key.to_le_bytes());
                        bytes[at + 8..at + 12].copy_from_slice(&child.to_le_bytes());
                    }
                }
            }
        })
    }

    fn child_for(entries: &[(u64, PageId)], leftmost: PageId, key: u64) -> PageId {
        let mut child = leftmost;
        for &(k, c) in entries {
            if key >= k {
                child = c;
            } else {
                break;
            }
        }
        child
    }

    /// Inserts a key.
    ///
    /// # Errors
    ///
    /// [`StoreError::DuplicateKey`] if the key exists;
    /// [`StoreError::DeviceFull`] if a split cannot allocate.
    pub fn insert(&mut self, key: u64, rid: RecordId) -> Result<(), StoreError> {
        if let Some((sep, right)) = self.insert_rec(self.root, key, rid.to_u64())? {
            // Root split: move the current root into a fresh page and
            // grow a new root in place? Simpler: allocate a new root.
            let new_root = self.pool.allocate_page()?;
            self.write_node(
                new_root,
                &Node::Internal {
                    leftmost: self.root,
                    entries: vec![(sep, right)],
                },
            )?;
            self.root = new_root;
        }
        self.len += 1;
        Ok(())
    }

    fn insert_rec(
        &mut self,
        pid: PageId,
        key: u64,
        rid: u64,
    ) -> Result<Option<(u64, PageId)>, StoreError> {
        match self.read_node(pid)? {
            Node::Leaf { next, mut entries } => {
                match entries.binary_search_by_key(&key, |e| e.0) {
                    Ok(_) => return Err(StoreError::DuplicateKey { key }),
                    Err(at) => entries.insert(at, (key, rid)),
                }
                if entries.len() <= self.leaf_capacity() {
                    self.write_node(pid, &Node::Leaf { next, entries })?;
                    return Ok(None);
                }
                // Split.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid);
                let sep = right_entries[0].0;
                let right_pid = self.pool.allocate_page()?;
                self.write_node(
                    right_pid,
                    &Node::Leaf {
                        next,
                        entries: right_entries,
                    },
                )?;
                self.write_node(
                    pid,
                    &Node::Leaf {
                        next: Some(right_pid),
                        entries,
                    },
                )?;
                Ok(Some((sep, right_pid)))
            }
            Node::Internal {
                leftmost,
                mut entries,
            } => {
                let child = Self::child_for(&entries, leftmost, key);
                let Some((sep, new_child)) = self.insert_rec(child, key, rid)? else {
                    return Ok(None);
                };
                let at = entries.partition_point(|&(k, _)| k <= sep);
                entries.insert(at, (sep, new_child));
                if entries.len() <= self.internal_capacity() {
                    self.write_node(pid, &Node::Internal { leftmost, entries })?;
                    return Ok(None);
                }
                // Split the internal node; the middle key moves up.
                let mid = entries.len() / 2;
                let right_entries = entries.split_off(mid + 1);
                let (up_key, up_child) = entries.pop().expect("mid entry exists");
                let right_pid = self.pool.allocate_page()?;
                self.write_node(
                    right_pid,
                    &Node::Internal {
                        leftmost: up_child,
                        entries: right_entries,
                    },
                )?;
                self.write_node(pid, &Node::Internal { leftmost, entries })?;
                Ok(Some((up_key, right_pid)))
            }
        }
    }

    /// Looks up a key.
    ///
    /// # Errors
    ///
    /// Device and corruption errors only; a missing key is `Ok(None)`.
    pub fn get(&self, key: u64) -> Result<Option<RecordId>, StoreError> {
        let mut pid = self.root;
        loop {
            match self.read_node(pid)? {
                Node::Leaf { entries, .. } => {
                    return Ok(entries
                        .binary_search_by_key(&key, |e| e.0)
                        .ok()
                        .map(|at| RecordId::from_u64(entries[at].1)));
                }
                Node::Internal { leftmost, entries } => {
                    pid = Self::child_for(&entries, leftmost, key);
                }
            }
        }
    }

    /// Replaces the record id stored for `key`.
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyNotFound`] if the key does not exist.
    pub fn update(&mut self, key: u64, rid: RecordId) -> Result<(), StoreError> {
        let mut pid = self.root;
        loop {
            match self.read_node(pid)? {
                Node::Leaf { next, mut entries } => {
                    let at = entries
                        .binary_search_by_key(&key, |e| e.0)
                        .map_err(|_| StoreError::KeyNotFound { key })?;
                    entries[at].1 = rid.to_u64();
                    return self.write_node(pid, &Node::Leaf { next, entries });
                }
                Node::Internal { leftmost, entries } => {
                    pid = Self::child_for(&entries, leftmost, key);
                }
            }
        }
    }

    /// Removes a key (leaves may underfill; lookups stay correct).
    ///
    /// # Errors
    ///
    /// [`StoreError::KeyNotFound`] if the key does not exist.
    pub fn delete(&mut self, key: u64) -> Result<(), StoreError> {
        let mut pid = self.root;
        loop {
            match self.read_node(pid)? {
                Node::Leaf { next, mut entries } => {
                    let at = entries
                        .binary_search_by_key(&key, |e| e.0)
                        .map_err(|_| StoreError::KeyNotFound { key })?;
                    entries.remove(at);
                    self.write_node(pid, &Node::Leaf { next, entries })?;
                    self.len -= 1;
                    return Ok(());
                }
                Node::Internal { leftmost, entries } => {
                    pid = Self::child_for(&entries, leftmost, key);
                }
            }
        }
    }
}

impl std::fmt::Debug for BTree {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BTree")
            .field("len", &self.len)
            .field("root", &self.root)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use proptest::prelude::*;
    use std::sync::Arc;

    fn small_pool() -> BufferPool {
        // 512-byte pages force splits quickly: leaf capacity 31.
        BufferPool::new(
            Arc::new(MemDevice::new(BlockSize::new(512).unwrap(), 4096)),
            64,
        )
    }

    fn rid(v: u64) -> RecordId {
        RecordId::from_u64(v)
    }

    #[test]
    fn insert_get_small() {
        let pool = small_pool();
        let mut t = BTree::create(&pool).unwrap();
        for k in [5u64, 1, 9, 3, 7] {
            t.insert(k, rid(k * 100)).unwrap();
        }
        for k in [1u64, 3, 5, 7, 9] {
            assert_eq!(t.get(k).unwrap(), Some(rid(k * 100)));
        }
        assert_eq!(t.get(2).unwrap(), None);
        assert_eq!(t.len, 5);
    }

    #[test]
    fn thousands_of_keys_split_many_levels() {
        let pool = small_pool();
        let mut t = BTree::create(&pool).unwrap();
        // Insert in a scrambled order.
        let mut keys: Vec<u64> = (0..5000).map(|i| (i * 2654435761u64) % 100_000).collect();
        keys.sort_unstable();
        keys.dedup();
        let mut shuffled = keys.clone();
        shuffled.reverse();
        for (i, &k) in shuffled.iter().enumerate() {
            t.insert(k, rid(i as u64)).unwrap();
        }
        assert_eq!(t.len, keys.len() as u64);
        for (i, &k) in shuffled.iter().enumerate() {
            assert_eq!(t.get(k).unwrap(), Some(rid(i as u64)), "key {k}");
        }
    }

    #[test]
    fn duplicate_keys_rejected() {
        let pool = small_pool();
        let mut t = BTree::create(&pool).unwrap();
        t.insert(1, rid(1)).unwrap();
        assert!(matches!(
            t.insert(1, rid(2)),
            Err(StoreError::DuplicateKey { key: 1 })
        ));
        assert_eq!(t.len, 1);
    }

    #[test]
    fn update_changes_value() {
        let pool = small_pool();
        let mut t = BTree::create(&pool).unwrap();
        t.insert(5, rid(1)).unwrap();
        t.update(5, rid(2)).unwrap();
        assert_eq!(t.get(5).unwrap(), Some(rid(2)));
        assert!(matches!(
            t.update(6, rid(0)),
            Err(StoreError::KeyNotFound { key: 6 })
        ));
    }

    #[test]
    fn delete_removes_key() {
        let pool = small_pool();
        let mut t = BTree::create(&pool).unwrap();
        for k in 0..200u64 {
            t.insert(k, rid(k)).unwrap();
        }
        for k in (0..200u64).step_by(2) {
            t.delete(k).unwrap();
        }
        for k in 0..200u64 {
            assert_eq!(t.get(k).unwrap().is_some(), k % 2 == 1, "key {k}");
        }
        assert_eq!(t.len, 100);
        assert!(matches!(
            t.delete(0),
            Err(StoreError::KeyNotFound { key: 0 })
        ));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn prop_matches_btreemap_model(ops in proptest::collection::vec(
            (0u8..3, 0u64..500), 1..400)) {
            let pool = small_pool();
            let mut tree = BTree::create(&pool).unwrap();
            let mut model = std::collections::BTreeMap::new();
            for (op, key) in ops {
                match op {
                    0 => {
                        let r = tree.insert(key, rid(key + 1));
                        if let std::collections::btree_map::Entry::Vacant(e) = model.entry(key) {
                            prop_assert!(r.is_ok());
                            e.insert(key + 1);
                        } else {
                            prop_assert!(r.is_err());
                        }
                    }
                    1 => {
                        let r = tree.delete(key);
                        prop_assert_eq!(r.is_ok(), model.remove(&key).is_some());
                    }
                    _ => {
                        let got = tree.get(key).unwrap().map(|r| r.to_u64());
                        prop_assert_eq!(got, model.get(&key).copied());
                    }
                }
            }
            prop_assert_eq!(tree.len, model.len() as u64);
        }
    }
}
