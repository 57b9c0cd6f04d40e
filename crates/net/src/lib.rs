//! Network substrate: message transports, the paper's WAN link model,
//! and wire-traffic metering.
//!
//! The PRINS evaluation measures one thing above all: **bytes put on the
//! network per replicated write**. This crate supplies the pieces every
//! higher layer uses to produce and account for that traffic:
//!
//! * [`Transport`] — a blocking, message-oriented duplex channel trait,
//! * [`channel_pair`] — an in-process transport (crossbeam channels) used
//!   by tests and single-process experiments,
//! * [`TcpTransport`] — length-prefix framed TCP for real two-process
//!   deployments (the examples run initiator and target over loopback),
//! * [`LinkModel`] — the paper's §3.3 link parameters: 1.5 KB Ethernet
//!   payload per packet plus 0.112 KB of TCP/IP/Ethernet headers, T1
//!   (154.4 KB/s) and T3 (4473.6 KB/s) bandwidths, 5 µs nodal processing
//!   and 1 ms propagation delay,
//! * [`TrafficMeter`] — atomic counters of messages, payload bytes, wire
//!   bytes (payload + per-packet header overhead) and packets,
//! * [`SinkTransport`] — discards sends (still metered) and replays a
//!   pre-loaded receive script; keeps wire allocations out of
//!   allocation-budget measurements,
//! * [`Clock`] / [`SimNet`] — the determinism seam: an injectable time
//!   source and a discrete-event simulated network with virtual time and
//!   scripted faults (delay, drop, duplicate, reorder, link flap) — the
//!   one way a test, the `prins-sim` harness or an experiment fails a
//!   link.
//!
//! # Example
//!
//! ```
//! use prins_net::{channel_pair, LinkModel, Transport};
//!
//! # fn main() -> Result<(), prins_net::NetError> {
//! let (a, b) = channel_pair(LinkModel::t1());
//! a.send(b"parity delta")?;
//! assert_eq!(b.recv()?, b"parity delta");
//! // 12 payload bytes fit in one packet: 12 + 112 header bytes.
//! assert_eq!(a.meter().wire_bytes_sent(), 124);
//! # Ok(())
//! # }
//! ```

#![warn(unreachable_pub)]

mod channel;
mod clock;
mod error;
mod link;
mod meter;
mod sim;
mod sink;
mod tcp;
mod transport;

pub use channel::{channel_pair, ChannelTransport};
pub use clock::{Clock, WallClock};
pub use error::NetError;
pub use link::LinkModel;
pub use meter::{MeterSnapshot, TrafficMeter};
pub use sim::{Dir, MsgRecord, SimClock, SimLinkCtl, SimNet, SimTransport};
pub use sink::SinkTransport;
pub use tcp::TcpTransport;
pub use transport::Transport;
