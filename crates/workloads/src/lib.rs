//! Benchmark workloads: TPC-C-lite, TPC-W-lite and the Ext2 tar
//! micro-benchmark — the I/O generators behind Figures 4–7 of the PRINS
//! paper.
//!
//! The paper stresses that I/O *traces* cannot evaluate PRINS because
//! they lack data contents; only workloads that generate realistic
//! contents can. These drivers therefore:
//!
//! * run against the real storage substrates
//!   ([`prins_pagestore`]/[`prins_fs`]) on an
//!   [`InstrumentedDevice`](prins_block::InstrumentedDevice), so every
//!   block write carries genuine before/after images;
//! * generate content per the TPC specifications (NURand, a-strings,
//!   customer last-name syllables, 10 % "ORIGINAL" item data …), so the
//!   5–20 % per-write change ratios and compressibility match what the
//!   paper measured on Oracle/Postgres/MySQL/Ext2.
//!
//! The main entry point is [`run`]: it builds the configured workload,
//! drives it for the configured number of operations, and streams every
//! block write `(seq, lba, old, new)` to an observer — typically a set
//! of replication strategies accumulating wire bytes.
//!
//! # Example
//!
//! ```
//! use prins_block::BlockSize;
//! use prins_workloads::{run, RunConfig, Workload};
//! use std::sync::atomic::{AtomicU64, Ordering};
//! use std::sync::Arc;
//!
//! let traffic = Arc::new(AtomicU64::new(0));
//! let sink = Arc::clone(&traffic);
//! let report = run(
//!     Workload::FsMicro,
//!     &RunConfig::smoke(BlockSize::kb4()),
//!     Some(Box::new(move |_seq, _lba, old, new| {
//!         // e.g. feed a replicator; here: count changed bytes.
//!         let changed = old.iter().zip(new).filter(|(a, b)| a != b).count();
//!         sink.fetch_add(changed as u64, Ordering::Relaxed);
//!     })),
//! )
//! .expect("workload runs");
//! assert!(report.device_writes > 0);
//! assert!(traffic.load(Ordering::Relaxed) > 0);
//! ```

#![warn(unreachable_pub)]

mod fsmicro;
mod report;
mod runner;
mod synth;
mod text;
mod tpcc;
mod tpcw;
mod trace;

pub use report::RunReport;
pub use runner::{run, RunConfig, ScalePreset, Workload, WorkloadError};
pub use text::prose;
pub use tpcc::{TpccDatabase, TpccDriver, TpccScale};
pub use trace::{capture_trace, WriteTrace};
