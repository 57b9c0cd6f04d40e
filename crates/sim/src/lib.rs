//! Deterministic fault-schedule simulation harness for the PRINS
//! replication stack.
//!
//! The harness drives the *real* engine, pipeline, cluster and resync
//! code — not models of them — under scripted and randomized fault
//! schedules, entirely in virtual time:
//!
//! * [`prins_net::SimNet`] replaces the wire: per-direction delay,
//!   drop, duplicate and reorder faults, all ordered by a single
//!   deterministic event queue that doubles as the virtual clock.
//! * The engine runs in manual-stepping mode on that clock, so a
//!   ten-second WAN schedule costs zero wall time and no test ever
//!   sleeps.
//! * [`World`] wires primaries to replicas and carries the oracle —
//!   the per-LBA history of every content the primary ever held. There
//!   is one [`World`], built from a [`Topology`] value: the cluster
//!   plane (a plain cluster is its one-group case), a stepped engine,
//!   or an erasure-coded group.
//!
//! Invariants checked (see [`World::check_invariants`], which says
//! which apply to each topology and why):
//!
//! 1. **Bit-identity at quiescence** — after links heal and resync
//!    converges, every replica equals the primary byte-for-byte (on the
//!    engine: every lane that never failed).
//! 2. **Historical states always** — at *every* step, each replica
//!    block holds some state the primary once had. A stale-base XOR or
//!    double-applied parity fabricates a state that never existed and
//!    trips this immediately. On the EC group, every live node's strips
//!    encode the logical image, and every decoded block is historical.
//! 3. **Per-LBA apply order** — the delivery log never shows two
//!    frames for one block arriving out of send order, nor a data
//!    frame delivered twice.
//! 4. **Byte conservation** — what the primary books as replicated
//!    payload equals what the wire meters actually carried.
//! 5. **Resync convergence** — healing plus bounded rejoin attempts
//!    always reach all-online with empty dirty maps.
//! 6. **Lifecycle chain** — recorded state changes form a legal walk
//!    of the replica state machine.
//! 7. **Quiet run** — a run that never touched a fault control records
//!    no NAK, ack failure or lifecycle transition.
//! 8. **Obs balance** — the engine's registry events and histograms
//!    balance its own counters.
//!
//! [`SCENARIOS`] holds the named schedules (link flap, crash mid-resync,
//! reorder, dup, slow WAN, quorum loss, a crash with frames in
//! flight, prune-then-rejoin, …); [`generate`] expands `u64` seeds
//! into randomized schedules, plays each on the cluster, engine and EC
//! topologies, and minimizes failures greedily; the `sim-replay` binary replays seeds
//! and runs the checked-in corpus in CI.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod fuzz;
mod scenario;
mod world;

pub use fuzz::{generate, minimize, run_case, FuzzCase, RunReport, SimOp};
pub use scenario::{run_scenario, ScenarioOutcome, SCENARIOS};
pub use world::{Topology, World};
