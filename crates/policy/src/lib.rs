//! Adaptive replication policy engine.
//!
//! The four static strategies in `prins-repl`
//! ([`ReplicationMode::ALL`](prins_repl::ReplicationMode::ALL)) each
//! dominate on some workload region and lose on another:
//!
//! * **Prins** (parity) wins when writes touch few bytes of
//!   incompressible data (OLTP row updates on packed binary pages);
//! * **PrinsCompressed** (parity + LZSS) wins when the parity itself
//!   carries redundancy (text, sparse structures);
//! * **Compressed** wins when (nearly) the whole block changes but the
//!   new content compresses (log appends, text churn) — the one case the
//!   PRINS fallback ships a *raw* full image;
//! * **Traditional** (full image) wins when the whole block changes and
//!   the content is incompressible (encrypted or already-compressed
//!   data) — compression attempts only burn CPU there.
//!
//! No static pick is best everywhere, and real devices mix all four
//! behaviors across their address space. [`AdaptiveReplicator`] learns
//! the mix online, per LBA region, from signals that are all O(block)
//! scans or cheaper:
//!
//! * the **exact parity wire length** from
//!   [`SparseCodec::plan_delta`](prins_parity::SparseCodec::plan_delta)
//!   (the write's one scan of its images, no allocation) decides
//!   parity-vs-full ground truth for *this* write before anything is
//!   encoded, and whatever parity is then emitted reads the same plan;
//! * **EWMA compressibility estimates** per region, seeded by a cheap
//!   stack-only 4-gram probe and
//!   thereafter corrected with exact ratios observed whenever a
//!   compressing strategy is chosen;
//! * periodic **exploration** re-tries the compressing variant so a
//!   region whose content drifts from incompressible to compressible is
//!   re-detected. Exploration (and any mispredicted pick) is byte-free:
//!   every compressing branch rescues itself to the smallest plain
//!   encoding of this write when its first choice loses, so estimate
//!   errors cost CPU, never wire bytes — and little of that: a trial
//!   that runs second carries the length of the frame it has to beat
//!   and stops once it cannot.
//!
//! Every decision also books the **counterfactual cost**: the bytes each
//! *other* strategy would have shipped, so `prins-obs` counters expose
//! `adaptive vs best-static` regret without re-running the workload.
//! The policy decides bytes only: an engine that runs it keeps the
//! batching it was built with for its whole life.
//!
//! # Example
//!
//! ```
//! use prins_block::Lba;
//! use prins_policy::{AdaptiveReplicator, PolicyConfig};
//! use prins_repl::Replicator;
//!
//! let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
//! let old = vec![0u8; 4096];
//! let mut new = old.clone();
//! new[7] ^= 0x5a; // tiny delta: parity is the obvious winner
//! let wire = adaptive.encode_write(Lba(3), &old, &new);
//! assert!(wire.len() < 32);
//! assert_eq!(adaptive.counters().pick_parity.get(), 1);
//! ```

#![warn(unreachable_pub)]

mod adaptive;
mod counters;
mod probe;
mod region;

pub use adaptive::AdaptiveReplicator;
pub use counters::PolicyCounters;

/// LBAs per classification region, as a shift (64 blocks).
pub(crate) const REGION_SHIFT: u32 = 6;
/// Region-table slots. Direct-mapped: colliding regions take over the
/// slot and reseed from the probe.
pub(crate) const REGIONS: usize = 1024;
/// EWMA smoothing, as a shift: new = old + (sample - old) / 8.
pub(crate) const EWMA_SHIFT: u32 = 3;
/// The compressing variant is forced every N-th write per region, so a
/// drifting region is re-detected.
pub(crate) const EXPLORE_INTERVAL: u32 = 64;
/// A compressing variant is picked only when its estimated payload is
/// at or below this per-mille fraction of the plain (parity or full)
/// image — a ≥3% saving, so marginal content cannot flap onto a
/// CPU-burning pick.
pub(crate) const COMPRESS_THRESHOLD_PM: u32 = 970;

/// Tuning knobs for [`AdaptiveReplicator`]. `Default` is the
/// configuration every experiment in EXPERIMENTS.md uses.
#[derive(Clone, Copy, Debug)]
pub struct PolicyConfig {
    /// Below this many wire bytes, compression cannot win (token
    /// overhead dominates) — skip it without consulting any estimate.
    pub min_compress_len: usize,
    /// Parity wires at least this long skip the estimates and run the
    /// compression chain on the real compressors, shipping the exact
    /// minimum of its candidates. Region EWMAs average over many small
    /// writes and mispredict exactly the rare heavy-tail writes that
    /// dominate shipped bytes. What the exact answer costs is bounded
    /// by the chain, not by the payload: the leg the region's
    /// estimates expect to win runs first, and the other leg carries
    /// the length of the frame it has to beat and is abandoned once its
    /// output cannot come in under it — a stream of XOR noise after
    /// about as many bytes as the winner is long, not after all of
    /// them. The classifier's CPU savings live in the small writes
    /// below this bar, which stay fused. `0` forces exact treatment
    /// everywhere.
    pub exact_trial_len: usize,
}

impl Default for PolicyConfig {
    fn default() -> Self {
        Self {
            min_compress_len: 24,
            exact_trial_len: 1024,
        }
    }
}
