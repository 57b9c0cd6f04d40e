//! Decision accounting: what the policy picked, what it shipped, and
//! what every *other* strategy would have shipped (counterfactuals).

use std::sync::Arc;

use prins_obs::{Counter, Registry};

/// The policy engine's observable state, exported through `prins-obs`.
///
/// `shipped_bytes` vs the four `cf_*_bytes` counters is the whole
/// adaptive-vs-static story: after any run,
/// `min(cf_*) - shipped = bytes saved over the best static policy`
/// (negative only if the policy misjudged, which `regret_bytes`
/// accumulates per write rather than letting wins hide losses).
pub struct PolicyCounters {
    /// Writes decided.
    pub(crate) writes: Arc<Counter>,
    /// Picks per strategy.
    pub pick_full: Arc<Counter>,
    pub pick_compressed: Arc<Counter>,
    pub pick_parity: Arc<Counter>,
    pub pick_parity_lzss: Arc<Counter>,
    /// Decisions forced by the exploration schedule.
    pub(crate) explores: Arc<Counter>,
    /// Wire bytes actually shipped.
    pub shipped_bytes: Arc<Counter>,
    /// Wire bytes each static policy would have shipped.
    pub cf_traditional_bytes: Arc<Counter>,
    pub(crate) cf_compressed_bytes: Arc<Counter>,
    pub(crate) cf_prins_bytes: Arc<Counter>,
    pub(crate) cf_prins_lzss_bytes: Arc<Counter>,
    /// Per-write `shipped - min(counterfactuals)`, clamped at zero —
    /// the bytes a clairvoyant per-write oracle would have saved.
    pub regret_bytes: Arc<Counter>,
}

impl PolicyCounters {
    /// Counters registered under `policy_*` in `registry`.
    pub(crate) fn registered(registry: &Registry) -> Self {
        Self {
            writes: registry.counter("policy_writes"),
            pick_full: registry.counter("policy_pick_full"),
            pick_compressed: registry.counter("policy_pick_compressed"),
            pick_parity: registry.counter("policy_pick_parity"),
            pick_parity_lzss: registry.counter("policy_pick_parity_lzss"),
            explores: registry.counter("policy_explores"),
            shipped_bytes: registry.counter("policy_shipped_bytes"),
            cf_traditional_bytes: registry.counter("policy_cf_traditional_bytes"),
            cf_compressed_bytes: registry.counter("policy_cf_compressed_bytes"),
            cf_prins_bytes: registry.counter("policy_cf_prins_bytes"),
            cf_prins_lzss_bytes: registry.counter("policy_cf_prins_lzss_bytes"),
            regret_bytes: registry.counter("policy_regret_bytes"),
        }
    }

    /// Standalone counters, not attached to any registry (unit tests,
    /// trait-only uses).
    pub(crate) fn detached() -> Self {
        let c = || Arc::new(Counter::new());
        Self {
            writes: c(),
            pick_full: c(),
            pick_compressed: c(),
            pick_parity: c(),
            pick_parity_lzss: c(),
            explores: c(),
            shipped_bytes: c(),
            cf_traditional_bytes: c(),
            cf_compressed_bytes: c(),
            cf_prins_bytes: c(),
            cf_prins_lzss_bytes: c(),
            regret_bytes: c(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registered_counters_show_up_in_the_registry() {
        let registry = Registry::new();
        let counters = PolicyCounters::registered(&registry);
        counters.shipped_bytes.add(123);
        assert_eq!(registry.counter("policy_shipped_bytes").get(), 123);
    }
}
