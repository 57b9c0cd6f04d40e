//! Queueing models from §3.3 of the PRINS paper: a closed queueing
//! network solved with exact Mean Value Analysis, and an open M/M/1
//! router model.
//!
//! The paper models a WAN of storage nodes as a *closed* network: each
//! computing node thinks for `Z = 0.1 s` (the measured TPC-C write
//! inter-arrival), then issues a replicated write that traverses two
//! FIFO routers; the node does not issue the next write until the
//! previous one is replicated. The population is
//! `nodes × replicas`. Router service time follows Equation (3)/(4):
//!
//! ```text
//! Dtrans  = (Sd + Sd/1.5 · 0.112) / Net_BW     (packetization + bandwidth)
//! Srouter = Dtrans + Dproc + Dprop             (5 µs + 1 ms)
//! ```
//!
//! where `Sd` is the bytes one replicated write puts on the wire — the
//! quantity the traffic experiments measure per replication technique.
//!
//! * [`Mva`] — exact MVA for a delay center plus K queueing centers
//!   (Figures 8 and 9),
//! * an open M/M/1 router model — the single-router saturation
//!   analysis behind Figure 10, whose series [`figures`] exposes,
//! * [`NodalDelay`] — Equation (3)/(4) service times for T1/T3 links,
//! * [`figures`] — ready-made series generators for the three figures.
//!
//! # Example
//!
//! ```
//! use prins_queueing::{Mva, NodalDelay};
//!
//! // Response time of traditional replication (8 KB per write) over T1
//! // with 2 routers, population 40 — the regime where Figure 8 blows up.
//! let s = NodalDelay::t1().service_time(8192.0);
//! let mva = Mva::new(0.1, vec![s, s]);
//! let r40 = mva.solve(40).response_time;
//! let r1 = mva.solve(1).response_time;
//! assert!(r40 > 10.0 * r1); // severe queueing at population 40
//! ```

#![warn(unreachable_pub)]

mod bounds;
pub mod figures;
mod mm1;
mod mva;
mod nodal;

pub use mva::{Mva, MvaSolution};
pub use nodal::NodalDelay;
