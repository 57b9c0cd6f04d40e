//! Equation (3)/(4): per-router nodal delay.

/// Router service-time model with the paper's constants.
///
/// Bandwidths follow the paper's "10 bits per byte" convention: a T1
/// line (1.544 Mbps) carries 154.4 KB/s, a T3 line (44.736 Mbps)
/// 4473.6 KB/s. Packetization adds 0.112 KB of headers per 1.5 KB of
/// payload; nodal processing is 5 µs and propagation 1 ms.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct NodalDelay {
    /// Usable link bandwidth in bytes per second.
    pub(crate) bandwidth_bytes_per_sec: f64,
    /// Per-packet payload capacity in bytes.
    pub(crate) mtu_payload: f64,
    /// Header bytes per packet.
    pub(crate) header_bytes: f64,
    /// Nodal processing delay in seconds.
    pub(crate) processing: f64,
    /// Propagation delay in seconds.
    pub(crate) propagation: f64,
}

impl NodalDelay {
    /// T1 line parameters.
    pub fn t1() -> Self {
        Self {
            bandwidth_bytes_per_sec: 154_400.0,
            ..Self::base()
        }
    }

    /// T3 line parameters.
    pub fn t3() -> Self {
        Self {
            bandwidth_bytes_per_sec: 4_473_600.0,
            ..Self::base()
        }
    }

    fn base() -> Self {
        Self {
            bandwidth_bytes_per_sec: 154_400.0,
            mtu_payload: 1500.0,
            header_bytes: 112.0,
            processing: 5e-6,
            propagation: 1e-3,
        }
    }

    /// Transmission delay `Dtrans` for a message of `sd` payload bytes
    /// (the paper's continuous `Sd + Sd/1.5 · 0.112` form).
    pub(crate) fn transmission_delay(&self, sd: f64) -> f64 {
        let wire = sd + sd / self.mtu_payload * self.header_bytes;
        wire / self.bandwidth_bytes_per_sec
    }

    /// Router service time `Srouter = Dtrans + Dproc + Dprop`.
    pub fn service_time(&self, sd: f64) -> f64 {
        self.transmission_delay(sd) + self.processing + self.propagation
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn t1_8kb_matches_hand_computation() {
        // 8192 + 8192/1500*112 = 8803.7 bytes; / 154400 = 57.0 ms.
        let d = NodalDelay::t1().transmission_delay(8192.0);
        assert!((d - 0.05702).abs() < 1e-4, "got {d}");
        let s = NodalDelay::t1().service_time(8192.0);
        assert!((s - (d + 0.001005)).abs() < 1e-9);
    }

    #[test]
    fn t3_is_faster_by_bandwidth_ratio() {
        let t1 = NodalDelay::t1().transmission_delay(8192.0);
        let t3 = NodalDelay::t3().transmission_delay(8192.0);
        assert!((t1 / t3 - 4_473_600.0 / 154_400.0).abs() < 1e-9);
    }

    #[test]
    fn zero_payload_still_pays_fixed_delays() {
        let s = NodalDelay::t1().service_time(0.0);
        assert!((s - 0.001005).abs() < 1e-12);
    }
}
