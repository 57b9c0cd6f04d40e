//! Wire-traffic accounting.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::LinkModel;

/// Atomic counters of traffic through one transport endpoint.
///
/// Shared (`Arc`) between a transport and the measurement harness; the
/// traffic figures of the paper (Figures 4–7) are read straight off these
/// counters.
#[derive(Debug)]
pub struct TrafficMeter {
    link: LinkModel,
    messages_sent: AtomicU64,
    messages_received: AtomicU64,
    payload_sent: AtomicU64,
    payload_received: AtomicU64,
    wire_sent: AtomicU64,
    packets_sent: AtomicU64,
}

impl TrafficMeter {
    /// Creates a zeroed meter whose packetization follows `link`.
    pub(crate) fn new(link: LinkModel) -> Self {
        Self {
            link,
            messages_sent: AtomicU64::new(0),
            messages_received: AtomicU64::new(0),
            payload_sent: AtomicU64::new(0),
            payload_received: AtomicU64::new(0),
            wire_sent: AtomicU64::new(0),
            packets_sent: AtomicU64::new(0),
        }
    }

    /// Creates a shared meter.
    pub fn shared(link: LinkModel) -> Arc<Self> {
        Arc::new(Self::new(link))
    }

    /// Accounts one outbound message of `payload_bytes`.
    pub fn record_send(&self, payload_bytes: usize) {
        self.messages_sent.fetch_add(1, Ordering::Relaxed);
        self.payload_sent
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
        self.wire_sent
            .fetch_add(self.link.wire_bytes(payload_bytes), Ordering::Relaxed);
        self.packets_sent
            .fetch_add(self.link.packets(payload_bytes), Ordering::Relaxed);
    }

    /// Accounts one inbound message of `payload_bytes`.
    pub fn record_recv(&self, payload_bytes: usize) {
        self.messages_received.fetch_add(1, Ordering::Relaxed);
        self.payload_received
            .fetch_add(payload_bytes as u64, Ordering::Relaxed);
    }

    /// Messages sent.
    pub(crate) fn messages_sent(&self) -> u64 {
        self.messages_sent.load(Ordering::Relaxed)
    }

    /// Messages received.
    pub(crate) fn messages_received(&self) -> u64 {
        self.messages_received.load(Ordering::Relaxed)
    }

    /// Application payload bytes sent (before packetization).
    pub fn payload_bytes_sent(&self) -> u64 {
        self.payload_sent.load(Ordering::Relaxed)
    }

    /// Application payload bytes received.
    pub(crate) fn payload_bytes_received(&self) -> u64 {
        self.payload_received.load(Ordering::Relaxed)
    }

    /// Bytes on the wire including per-packet protocol headers.
    pub fn wire_bytes_sent(&self) -> u64 {
        self.wire_sent.load(Ordering::Relaxed)
    }

    /// Packets sent (per the link's MTU model).
    pub fn packets_sent(&self) -> u64 {
        self.packets_sent.load(Ordering::Relaxed)
    }

    /// Freezes the current counters. Two snapshots bracket a
    /// measurement window; [`MeterSnapshot::delta`] yields the
    /// traffic inside it without resetting the meter.
    pub fn snapshot(&self) -> MeterSnapshot {
        MeterSnapshot {
            messages_sent: self.messages_sent(),
            messages_received: self.messages_received(),
            payload_bytes_sent: self.payload_bytes_sent(),
            payload_bytes_received: self.payload_bytes_received(),
            wire_bytes_sent: self.wire_bytes_sent(),
            packets_sent: self.packets_sent(),
        }
    }
}

/// A point-in-time copy of a [`TrafficMeter`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MeterSnapshot {
    /// Messages sent.
    pub messages_sent: u64,
    /// Messages received.
    pub messages_received: u64,
    /// Application payload bytes sent (before packetization).
    pub payload_bytes_sent: u64,
    /// Application payload bytes received.
    pub payload_bytes_received: u64,
    /// Bytes on the wire including per-packet protocol headers.
    pub wire_bytes_sent: u64,
    /// Packets sent.
    pub packets_sent: u64,
}

impl MeterSnapshot {
    /// The traffic between `earlier` and `self` (saturating, so
    /// snapshots passed in the wrong order yield zeros rather than
    /// wrapping).
    pub fn delta(&self, earlier: &MeterSnapshot) -> MeterSnapshot {
        MeterSnapshot {
            messages_sent: self.messages_sent.saturating_sub(earlier.messages_sent),
            messages_received: self
                .messages_received
                .saturating_sub(earlier.messages_received),
            payload_bytes_sent: self
                .payload_bytes_sent
                .saturating_sub(earlier.payload_bytes_sent),
            payload_bytes_received: self
                .payload_bytes_received
                .saturating_sub(earlier.payload_bytes_received),
            wire_bytes_sent: self.wire_bytes_sent.saturating_sub(earlier.wire_bytes_sent),
            packets_sent: self.packets_sent.saturating_sub(earlier.packets_sent),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = TrafficMeter::new(LinkModel::t1());
        m.record_send(100);
        m.record_send(2000);
        m.record_recv(50);
        assert_eq!(m.messages_sent(), 2);
        assert_eq!(m.messages_received(), 1);
        assert_eq!(m.payload_bytes_sent(), 2100);
        assert_eq!(m.payload_bytes_received(), 50);
        assert_eq!(m.packets_sent(), 1 + 2);
        assert_eq!(m.wire_bytes_sent(), 2100 + 3 * 112);
    }

    #[test]
    fn zero_byte_message_still_costs_a_packet() {
        let m = TrafficMeter::new(LinkModel::t1());
        m.record_send(0);
        assert_eq!(m.packets_sent(), 1);
        assert_eq!(m.wire_bytes_sent(), 112);
    }

    #[test]
    fn snapshot_deltas_measure_a_window() {
        let m = TrafficMeter::new(LinkModel::t1());
        m.record_send(100);
        let before = m.snapshot();
        m.record_send(2000);
        m.record_recv(50);
        let after = m.snapshot();
        let window = after.delta(&before);
        assert_eq!(window.messages_sent, 1);
        assert_eq!(window.payload_bytes_sent, 2000);
        assert_eq!(window.messages_received, 1);
        assert_eq!(window.payload_bytes_received, 50);
        assert_eq!(window.packets_sent, 2);
    }

    #[test]
    fn meter_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TrafficMeter>();
    }
}
