//! A miniature DBMS storage engine: slotted pages, a buffer pool, heap
//! tables and a B-tree index — the substrate under the TPC-C and TPC-W
//! workloads.
//!
//! # Why this exists
//!
//! The PRINS traffic results hinge on *data content*: a transaction
//! updates a few rows of an 8 KB database page, so only 5–20 % of the
//! block changes, and the parity `P' = new ⊕ old` is mostly zeros. I/O
//! traces cannot reproduce this (the paper makes the same point — traces
//! carry no contents), so this crate implements the storage layout real
//! DBMSs use:
//!
//! * slotted pages — header + slot directory + tuple area, with an LSN
//!   that churns on every modification (the metadata noise real pages
//!   have),
//! * [`BufferPool`] — CLOCK eviction, dirty write-back, pin counting,
//! * [`Table`] — heap file of encoded rows ([`Row`], [`Value`]) with
//!   free-space tracking,
//! * [`BTree`] — an on-page B-tree mapping `u64` keys to [`RecordId`]s,
//! * [`DbProfile`] — per-DBMS layout knobs (row header size, fill
//!   factor) approximating Oracle, Postgres and MySQL page behaviour.
//!
//! Everything lives on an ordinary
//! [`BlockDevice`](prins_block::BlockDevice), so the workloads can run on
//! an instrumented device and expose the exact block write stream the
//! replication experiments consume.
//!
//! # Example
//!
//! ```
//! use prins_block::{BlockSize, MemDevice};
//! use prins_pagestore::{BufferPool, DbProfile, Row, Table, Value};
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), prins_pagestore::StoreError> {
//! let device = Arc::new(MemDevice::new(BlockSize::kb8(), 256));
//! let pool = BufferPool::new(device, 32);
//! let mut table = Table::with_profile(&pool, DbProfile::oracle())?;
//!
//! let rid = table.insert(&Row::new(vec![
//!     Value::U64(42),
//!     Value::Str("district-7".into()),
//!     Value::F64(1000.0),
//! ]))?;
//! let row = table.get(rid)?;
//! assert_eq!(row.values()[0], Value::U64(42));
//! pool.flush_all()?;
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod btree;
mod bufpool;
mod page;
mod profile;
mod row;
mod table;

pub use btree::BTree;
pub use bufpool::BufferPool;
pub use profile::DbProfile;
pub use row::{Row, Value};
pub use table::{RecordId, StoreError, Table};
