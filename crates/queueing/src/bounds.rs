//! Asymptotic bounds from operational analysis (Lazowska et al., the
//! paper's reference [29], ch. 5).
//!
//! For a closed network with total service demand `D`, bottleneck demand
//! `D_max` and think time `Z`:
//!
//! ```text
//! X(N) ≤ min( N / (D + Z),  1 / D_max )
//! R(N) ≥ max( D,  N · D_max − Z )
//! ```
//!
//! The knee population `N* = (D + Z) / D_max` marks where queueing
//! starts dominating — for the paper's Figure 8 it explains *why*
//! traditional replication's curve turns upward near population 2 while
//! PRINS's knee sits far to the right. The exact MVA solution must
//! respect these bounds everywhere, which the tests below verify: the
//! bounds are the reference the exact solver is checked against.

#[cfg(test)]
mod tests {
    use crate::Mva;
    use proptest::prelude::*;

    /// Asymptotic bounds for a closed network.
    struct AsymptoticBounds {
        /// Sum of all service demands (seconds).
        total_demand: f64,
        /// Largest single-center demand (seconds).
        bottleneck_demand: f64,
        /// Think time (seconds).
        think_time: f64,
    }

    impl AsymptoticBounds {
        /// Derives the bounds for a delay center plus FIFO centers with the
        /// given service times.
        ///
        /// # Panics
        ///
        /// Panics on an empty or non-positive service-time list (same
        /// contract as [`Mva::new`]).
        fn new(think_time: f64, service_times: &[f64]) -> Self {
            assert!(!service_times.is_empty(), "need at least one center");
            assert!(
                service_times.iter().all(|&s| s > 0.0),
                "service times must be positive"
            );
            Self {
                total_demand: service_times.iter().sum(),
                bottleneck_demand: service_times.iter().cloned().fold(f64::MIN, f64::max),
                think_time,
            }
        }

        /// Upper bound on throughput at population `n`.
        fn throughput_upper(&self, n: u32) -> f64 {
            (n as f64 / (self.total_demand + self.think_time)).min(1.0 / self.bottleneck_demand)
        }

        /// Lower bound on response time at population `n`.
        fn response_lower(&self, n: u32) -> f64 {
            self.total_demand
                .max(n as f64 * self.bottleneck_demand - self.think_time)
        }

        /// The knee population `N*` where the two throughput asymptotes
        /// cross — the onset of saturation.
        fn knee(&self) -> f64 {
            (self.total_demand + self.think_time) / self.bottleneck_demand
        }

        /// Checks an exact [`Mva`] solution against the bounds.
        fn admits(&self, mva: &Mva, n: u32) -> bool {
            let sol = mva.solve(n);
            let eps = 1e-9;
            sol.throughput <= self.throughput_upper(n) + eps
                && sol.response_time >= self.response_lower(n) - eps
        }
    }

    #[test]
    fn mva_respects_bounds_for_the_papers_parameters() {
        // Traditional replication over T1 (Figure 8's steep curve).
        let s = crate::NodalDelay::t1().service_time(8192.0);
        let services = vec![s, s];
        let bounds = AsymptoticBounds::new(0.1, &services);
        let mva = Mva::new(0.1, services);
        for n in [1u32, 2, 5, 10, 25, 50, 100] {
            assert!(bounds.admits(&mva, n), "population {n}");
        }
    }

    #[test]
    fn knee_explains_figure8() {
        // Traditional (8 KB over T1): knee near population 2-3.
        let s_trad = crate::NodalDelay::t1().service_time(8192.0);
        let trad = AsymptoticBounds::new(0.1, &[s_trad, s_trad]);
        assert!(trad.knee() < 4.0, "traditional knee {}", trad.knee());
        // PRINS (~80 B over T1): knee far beyond population 50.
        let s_prins = crate::NodalDelay::t1().service_time(82.0);
        let prins = AsymptoticBounds::new(0.1, &[s_prins, s_prins]);
        assert!(prins.knee() > 50.0, "prins knee {}", prins.knee());
    }

    #[test]
    fn bounds_are_tight_at_the_extremes() {
        let services = vec![0.05, 0.01];
        let bounds = AsymptoticBounds::new(0.1, &services);
        let mva = Mva::new(0.1, services);
        // At N=1 the response bound is exactly the demand.
        let sol = mva.solve(1);
        assert!((sol.response_time - bounds.response_lower(1)).abs() < 1e-12);
        // Deep in saturation the linear asymptote is tight to ~1%.
        let sol = mva.solve(300);
        let lower = bounds.response_lower(300);
        assert!((sol.response_time - lower) / lower < 0.01);
    }

    proptest! {
        #[test]
        fn prop_exact_solution_always_within_bounds(
            z in 0.0f64..0.5,
            services in proptest::collection::vec(1e-5f64..0.1, 1..5),
            n in 1u32..80,
        ) {
            let bounds = AsymptoticBounds::new(z, &services);
            let mva = Mva::new(z, services);
            prop_assert!(bounds.admits(&mva, n));
        }
    }
}
