//! The paper's WAN link model (§3.3).
//!
//! Replicated data is encapsulated into Ethernet packets of 1.5 KB
//! payload plus 0.112 KB of Ethernet/IP/TCP headers. A T1 line carries
//! 1.544 Mbps ≈ 154.4 KB/s (the paper assumes 10 bits per byte to cover
//! framing); a T3 line 44.736 Mbps ≈ 4473.6 KB/s. Nodal processing delay
//! is 5 µs per packet; propagation delay 1 ms per hop (≈ 200 km at
//! 2·10⁸ m/s).

use std::time::Duration;

/// Parameters of one network link, in the paper's terms.
///
/// # Example
///
/// ```
/// use prins_net::LinkModel;
///
/// let t1 = LinkModel::t1();
/// // An 8 KB block spans 6 packets → 8192 + 6*112 wire bytes.
/// assert_eq!(t1.wire_bytes(8192), 8192 + 6 * 112);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkModel {
    /// Usable bandwidth in bytes per second.
    bandwidth_bytes_per_sec: u64,
    /// Packet payload capacity in bytes (1500 in the paper).
    mtu_payload: usize,
    /// Header bytes added to every packet (112 in the paper).
    header_bytes: usize,
    /// Per-packet nodal processing delay.
    processing: Duration,
    /// Per-hop propagation delay.
    propagation: Duration,
}

impl LinkModel {
    /// Paper constant: packet payload size (1.5 KB).
    pub(crate) const MTU_PAYLOAD: usize = 1500;
    /// Paper constant: Ethernet + IP + TCP headers (0.112 KB).
    pub(crate) const HEADER_BYTES: usize = 112;

    /// A T1 line: 1.544 Mbps ≈ 154.4 KB/s.
    pub fn t1() -> Self {
        Self::custom(154_400)
    }

    /// A T3 line: 44.736 Mbps ≈ 4473.6 KB/s.
    pub fn t3() -> Self {
        Self::custom(4_473_600)
    }

    /// A gigabit LAN (the paper's testbed switch): ~100 MB/s usable,
    /// negligible propagation.
    pub fn gigabit_lan() -> Self {
        Self {
            bandwidth_bytes_per_sec: 100_000_000,
            mtu_payload: Self::MTU_PAYLOAD,
            header_bytes: Self::HEADER_BYTES,
            processing: Duration::from_micros(5),
            propagation: Duration::from_micros(10),
        }
    }

    /// A WAN link with the paper's packet model and the given usable
    /// bandwidth in bytes per second.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_bytes_per_sec` is zero.
    pub(crate) fn custom(bandwidth_bytes_per_sec: u64) -> Self {
        assert!(bandwidth_bytes_per_sec > 0, "bandwidth must be positive");
        Self {
            bandwidth_bytes_per_sec,
            mtu_payload: Self::MTU_PAYLOAD,
            header_bytes: Self::HEADER_BYTES,
            processing: Duration::from_micros(5),
            propagation: Duration::from_millis(1),
        }
    }

    /// Number of packets a payload of `payload_bytes` occupies (at least
    /// one — a zero-byte message still sends headers).
    pub(crate) fn packets(&self, payload_bytes: usize) -> u64 {
        (payload_bytes.div_ceil(self.mtu_payload) as u64).max(1)
    }

    /// Bytes actually on the wire: payload plus per-packet headers.
    ///
    /// This is the paper's `Sd + Sd/1.5 * 0.112` packetization model.
    pub fn wire_bytes(&self, payload_bytes: usize) -> u64 {
        payload_bytes as u64 + self.packets(payload_bytes) * self.header_bytes as u64
    }

    /// Transmission delay `Dtrans` for one message of `payload_bytes`.
    pub(crate) fn transmission_delay(&self, payload_bytes: usize) -> Duration {
        Duration::from_secs_f64(
            self.wire_bytes(payload_bytes) as f64 / self.bandwidth_bytes_per_sec as f64,
        )
    }

    /// Router service time per the paper's Equation (4):
    /// `Srouter = Dtrans + Dproc + Dprop`.
    pub fn service_time(&self, payload_bytes: usize) -> Duration {
        self.transmission_delay(payload_bytes) + self.processing + self.propagation
    }
}

impl Default for LinkModel {
    /// The T1 line used in Figures 8 and 10.
    fn default() -> Self {
        Self::t1()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packet_counts_match_the_paper_model() {
        let l = LinkModel::t1();
        assert_eq!(l.packets(0), 1);
        assert_eq!(l.packets(1), 1);
        assert_eq!(l.packets(1500), 1);
        assert_eq!(l.packets(1501), 2);
        assert_eq!(l.packets(64 * 1024), 44); // 65536/1500 = 43.7
    }

    #[test]
    fn t1_service_time_for_8kb_matches_hand_computation() {
        // Paper: Dtrans = (Sd + Sd/1.5*0.112)/154.4 with Sd in KB.
        // For 8 KB: wire = 8192 + 6*112 = 8864 bytes; 8864/154400 = 57.4ms.
        let t = LinkModel::t1().transmission_delay(8192);
        let expected = 8864.0 / 154_400.0;
        assert!((t.as_secs_f64() - expected).abs() < 1e-9);
        let s = LinkModel::t1().service_time(8192);
        assert!((s.as_secs_f64() - (expected + 0.001 + 0.000_005)).abs() < 1e-9);
    }

    #[test]
    fn t3_is_about_29x_t1() {
        let r = LinkModel::t1().transmission_delay(8192).as_secs_f64()
            / LinkModel::t3().transmission_delay(8192).as_secs_f64();
        assert!((r - 28.97).abs() < 0.1, "ratio {r}");
    }

    #[test]
    fn wire_bytes_monotone_in_payload() {
        let l = LinkModel::t1();
        let mut prev = 0;
        for p in (0..20_000).step_by(333) {
            let w = l.wire_bytes(p);
            assert!(w >= prev);
            assert!(w >= p as u64);
            prev = w;
        }
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkModel::custom(0);
    }
}
