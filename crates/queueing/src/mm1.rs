//! Open M/M/1 router model (Figure 10).

/// An M/M/1 queue with a fixed service time (rate `µ = 1/s`).
///
/// The paper uses this to show how fast each replication technique
/// saturates a single router as the write request rate grows.
#[derive(Clone, Copy, Debug, PartialEq)]
pub(crate) struct MM1 {
    service_time: f64,
}

impl MM1 {
    /// Creates a queue with the given mean service time in seconds.
    ///
    /// # Panics
    ///
    /// Panics on a non-positive service time.
    pub(crate) fn new(service_time: f64) -> Self {
        assert!(service_time > 0.0, "service time must be positive");
        Self { service_time }
    }

    /// The service rate `µ` in customers per second.
    pub(crate) fn service_rate(&self) -> f64 {
        1.0 / self.service_time
    }

    /// Utilization `ρ = λ/µ` at arrival rate `lambda`.
    pub(crate) fn utilization(&self, lambda: f64) -> f64 {
        lambda * self.service_time
    }

    /// Mean time spent waiting in the queue (excluding service):
    /// `Wq = ρ/(µ−λ)`. `None` when saturated — the paper plots these
    /// points as the curve shooting up.
    pub(crate) fn queueing_time(&self, lambda: f64) -> Option<f64> {
        let rho = self.utilization(lambda);
        if rho >= 1.0 {
            return None;
        }
        Some(rho / (self.service_rate() - lambda))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn idle_queue_has_zero_wait() {
        let q = MM1::new(0.01);
        assert!(q.queueing_time(0.0).unwrap().abs() < 1e-12);
    }

    #[test]
    fn wait_grows_without_bound_near_saturation() {
        let q = MM1::new(0.01); // µ = 100
        let w50 = q.queueing_time(50.0).unwrap();
        let w90 = q.queueing_time(90.0).unwrap();
        let w99 = q.queueing_time(99.0).unwrap();
        assert!(w90 > 5.0 * w50);
        assert!(w99 > 5.0 * w90);
        assert!(q.queueing_time(100.0).is_none());
        assert!(q.queueing_time(150.0).is_none());
    }

    proptest! {
        #[test]
        fn prop_stability_boundary(s in 1e-4f64..1.0, frac in 0.0f64..2.0) {
            let q = MM1::new(s);
            let lambda = frac * q.service_rate();
            prop_assert_eq!(q.queueing_time(lambda).is_some(), frac < 1.0);
            if let Some(w) = q.queueing_time(lambda) {
                prop_assert!(w >= 0.0);
            }
        }
    }
}
