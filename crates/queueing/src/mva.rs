//! Exact Mean Value Analysis for a closed queueing network.

/// Solution of the closed network at one population size.
#[derive(Clone, Debug, PartialEq)]
pub struct MvaSolution {
    /// Population the network was solved for.
    pub(crate) population: u32,
    /// Total response time through the queueing centers (seconds) —
    /// what Figures 8 and 9 plot.
    pub response_time: f64,
    /// System throughput (customers per second).
    pub throughput: f64,
    /// Mean queue length at each center.
    pub(crate) queue_lengths: Vec<f64>,
    /// Utilization of each center.
    pub(crate) utilizations: Vec<f64>,
}

/// Exact MVA solver: one delay center (think time `Z`) plus FIFO
/// queueing centers with given service times (Reiser & Lavenberg; the
/// textbook algorithm of Lazowska et al., the paper's reference \[29\]).
///
/// # Example
///
/// ```
/// use prins_queueing::Mva;
///
/// // A single 10 ms server with 90 ms think time: at population 1 the
/// // response time is exactly the service time.
/// let mva = Mva::new(0.09, vec![0.01]);
/// let sol = mva.solve(1);
/// assert!((sol.response_time - 0.01).abs() < 1e-12);
/// assert!((sol.throughput - 10.0).abs() < 1e-9);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct Mva {
    think_time: f64,
    service_times: Vec<f64>,
}

impl Mva {
    /// Creates a solver for think time `z` and per-center service times.
    ///
    /// # Panics
    ///
    /// Panics on negative times or an empty center list.
    pub fn new(z: f64, service_times: Vec<f64>) -> Self {
        assert!(z >= 0.0, "think time must be non-negative");
        assert!(!service_times.is_empty(), "need at least one center");
        assert!(
            service_times.iter().all(|&s| s > 0.0),
            "service times must be positive"
        );
        Self {
            think_time: z,
            service_times,
        }
    }

    /// Solves the network exactly for `population` customers.
    ///
    /// # Panics
    ///
    /// Panics for population 0 (an empty network has no response time).
    pub fn solve(&self, population: u32) -> MvaSolution {
        assert!(population > 0, "population must be at least 1");
        let k = self.service_times.len();
        let mut queue = vec![0.0f64; k];
        let mut response_time = 0.0;
        let mut throughput = 0.0;
        for n in 1..=population {
            let r_k: Vec<f64> = self
                .service_times
                .iter()
                .zip(&queue)
                .map(|(&s, &q)| s * (1.0 + q))
                .collect();
            response_time = r_k.iter().sum();
            throughput = n as f64 / (self.think_time + response_time);
            for (q, r) in queue.iter_mut().zip(&r_k) {
                *q = throughput * r;
            }
        }
        let utilizations = self
            .service_times
            .iter()
            .map(|&s| (throughput * s).min(1.0))
            .collect();
        MvaSolution {
            population,
            response_time,
            throughput,
            queue_lengths: queue,
            utilizations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn population_one_has_no_queueing() {
        let mva = Mva::new(0.1, vec![0.02, 0.03]);
        let sol = mva.solve(1);
        assert!((sol.response_time - 0.05).abs() < 1e-12);
        assert!((sol.throughput - 1.0 / 0.15).abs() < 1e-9);
    }

    #[test]
    fn response_time_is_monotone_in_population() {
        let mva = Mva::new(0.1, vec![0.057, 0.057]);
        for n in 2..=100 {
            let (prev, r) = (mva.solve(n - 1), mva.solve(n));
            assert!(
                r.response_time >= prev.response_time,
                "response time decreased at {n}"
            );
        }
    }

    #[test]
    fn throughput_saturates_at_bottleneck_rate() {
        // Bottleneck: 50 ms server → max throughput 20/s.
        let mva = Mva::new(0.1, vec![0.05, 0.001]);
        let sol = mva.solve(500);
        assert!(sol.throughput <= 20.0 + 1e-9);
        assert!(sol.throughput > 19.9, "got {}", sol.throughput);
        assert!(sol.utilizations[0] > 0.999);
        assert!(sol.utilizations[1] < 0.05);
    }

    #[test]
    fn asymptotic_response_matches_bound() {
        // For large N: R ≈ N * S_bottleneck - Z.
        let s = 0.05;
        let mva = Mva::new(0.1, vec![s]);
        let n = 400u32;
        let sol = mva.solve(n);
        let bound = n as f64 * s - 0.1;
        assert!((sol.response_time - bound).abs() / bound < 0.01);
    }

    #[test]
    fn little_law_holds() {
        let mva = Mva::new(0.1, vec![0.02, 0.04]);
        for n in [1u32, 5, 20, 80] {
            let sol = mva.solve(n);
            // N = X * (Z + R)
            let lhs = n as f64;
            let rhs = sol.throughput * (0.1 + sol.response_time);
            assert!((lhs - rhs).abs() < 1e-9, "population {n}");
            // Sum of queue lengths + thinking customers = N
            let queued: f64 = sol.queue_lengths.iter().sum();
            let thinking = sol.throughput * 0.1;
            assert!((queued + thinking - lhs).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_population_panics() {
        let _ = Mva::new(0.1, vec![0.01]).solve(0);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_service_time_panics() {
        let _ = Mva::new(0.1, vec![0.0]);
    }

    proptest! {
        #[test]
        fn prop_invariants(z in 0.0f64..1.0,
                           services in proptest::collection::vec(1e-6f64..0.2, 1..5),
                           n in 1u32..60) {
            let mva = Mva::new(z, services.clone());
            let sol = mva.solve(n);
            prop_assert!(sol.response_time >= services.iter().sum::<f64>() - 1e-12);
            prop_assert!(sol.throughput > 0.0);
            let max_x = 1.0 / services.iter().cloned().fold(f64::MIN, f64::max);
            prop_assert!(sol.throughput <= max_x + 1e-9);
            prop_assert!(sol.queue_lengths.iter().all(|&q| q >= -1e-12));
        }
    }
}
