//! `prins-obs` — the observability substrate of the PRINS stack.
//!
//! The paper's headline claims are all *measurements*: bytes on the wire
//! per application write, < 10 % CPU overhead, response-time scaling.
//! This crate provides the instrumentation every layer shares:
//!
//! * a lock-light [`Registry`] of named [`Counter`]s, [`Gauge`]s and
//!   fixed-bucket log2 [`Histogram`]s (p50/p90/p99/max, plain `std`
//!   atomics — no external dependencies);
//! * stage timing by plain [`Clock`](prins_net::Clock) reads recorded
//!   into histograms — the clock is injected, so durations are
//!   deterministic under a [`SimClock`](prins_net::SimClock) and real
//!   under the wall clock;
//! * a bounded [`EventRing`] of typed pipeline events (admit, encode
//!   done, send, ack, NAK, resync batch, lifecycle transition) tagged
//!   with seq/LBA/replica, drainable as a replayable trace;
//! * a per-write [`TraceSink`]: each write's hops (capture, encode,
//!   lane queue, send, ack, replica and strip fan-out) land in a fixed
//!   slot table, and a finished trace feeds a latency histogram,
//!   `(stage, lane)` tail attribution, per-shard SLO burn and anomaly
//!   counts — no allocation on the record path;
//! * exporters — a human-readable table, a JSON snapshot, and
//!   Prometheus-style text — all with deterministic (sorted, integer)
//!   output, so two runs of the same simulation seed produce
//!   byte-identical snapshots.
//!
//! # Determinism contract
//!
//! Everything in a [`Snapshot`] is integers in sorted order; no floats,
//! no wall-clock reads, no hash-map iteration. When the instrumented
//! code runs single-threaded against a virtual clock (the `prins-sim`
//! harness, the stepped engine), the event trace and the snapshot are
//! pure functions of the input schedule. Under real threads the counts
//! still add up, but event interleaving follows the scheduler.
//!
//! # Example
//!
//! ```
//! use prins_obs::Registry;
//! use prins_net::{Clock, WallClock};
//!
//! let registry = Registry::new();
//! let clock = WallClock::new();
//! let hist = registry.histogram("encode_nanos");
//! let t0 = clock.now_nanos();
//! // ... the work being timed ...
//! hist.record(clock.now_nanos().saturating_sub(t0));
//! let snap = registry.snapshot();
//! assert_eq!(snap.histograms["encode_nanos"].count, 1);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod events;
mod export;
mod meter;
mod metrics;
mod registry;
mod trace;

pub use events::{Event, EventKind, EventRing};
pub use export::{HistogramSnapshot, Snapshot};
pub use meter::register_meter;
pub use metrics::{Counter, Gauge, Histogram};
pub use registry::Registry;
pub use trace::{lane_bucket, TraceConfig, TraceId, TraceSink, TraceStage, LANE_BUCKETS, NO_LANE};
