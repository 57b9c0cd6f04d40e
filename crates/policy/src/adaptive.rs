//! The adaptive replicator: per-region online strategy selection with
//! counterfactual accounting and workload-phase detection.

use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::RwLock;

use prins_block::Lba;
use prins_compress::Lzss;
use prins_obs::Registry;
use prins_parity::SparseCodec;
use prins_repl::{
    put_compressed, put_full, put_parity, CompressedReplicator, PrinsReplicator, Replicator,
    TraditionalReplicator,
};

use crate::counters::{CounterfactualMode, PolicyCounters};
use crate::probe::probe_compressibility_pm;
use crate::region::{RegionSlot, RegionTable};
use crate::{PolicyConfig, Strategy};

/// Encoded length of a varint, for header-size arithmetic.
fn varint_len(mut v: u64) -> usize {
    let mut n = 1;
    while v >= 0x80 {
        v >>= 7;
        n += 1;
    }
    n
}

/// `n * 1000 / d` as a clamped per-mille ratio; empty denominators read
/// as incompressible.
fn ratio_pm(n: usize, d: usize) -> u32 {
    match n.saturating_mul(1000).checked_div(d) {
        Some(pm) => pm.min(2000) as u32,
        None => 1020,
    }
}

/// Workload phase classified from the recent decision mix.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WorkloadPhase {
    /// ≥ 75% of recent writes were parity-shaped (small deltas): deep
    /// batching pays, payloads are tiny.
    SmallDelta,
    /// No clear majority.
    Mixed,
    /// ≥ 75% of recent writes shipped (near-)full blocks: payloads are
    /// large, coalescing repeated blocks saves whole images.
    Churn,
}

impl WorkloadPhase {
    /// Short name for reports.
    pub fn name(self) -> &'static str {
        match self {
            WorkloadPhase::SmallDelta => "small-delta",
            WorkloadPhase::Mixed => "mixed",
            WorkloadPhase::Churn => "churn",
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => WorkloadPhase::SmallDelta,
            2 => WorkloadPhase::Churn,
            _ => WorkloadPhase::Mixed,
        }
    }
}

/// Classifies the global write mix over fixed windows, with two-window
/// hysteresis so one odd window cannot flap the engine's tuning.
pub struct PhaseDetector {
    window: u32,
    writes: AtomicU32,
    parityish: AtomicU32,
    current: AtomicU8,
    pending: AtomicU8,
}

impl PhaseDetector {
    /// A detector classifying every `window` decisions (min 1).
    pub fn new(window: u32) -> Self {
        Self {
            window: window.max(1),
            writes: AtomicU32::new(0),
            parityish: AtomicU32::new(0),
            current: AtomicU8::new(WorkloadPhase::Mixed as u8),
            pending: AtomicU8::new(WorkloadPhase::Mixed as u8),
        }
    }

    /// Feeds one decision; returns the new phase when a transition
    /// commits (the same classification in two consecutive windows,
    /// differing from the current phase).
    pub fn on_decision(&self, parity_family: bool) -> Option<WorkloadPhase> {
        if parity_family {
            self.parityish.fetch_add(1, Ordering::Relaxed);
        }
        let n = self.writes.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        if !n.is_multiple_of(self.window) {
            return None;
        }
        let p = self.parityish.swap(0, Ordering::Relaxed);
        let class = if p * 4 >= self.window * 3 {
            WorkloadPhase::SmallDelta
        } else if p * 4 <= self.window {
            WorkloadPhase::Churn
        } else {
            WorkloadPhase::Mixed
        };
        let confirmed = self.pending.swap(class as u8, Ordering::Relaxed) == class as u8;
        if confirmed && self.current.swap(class as u8, Ordering::Relaxed) != class as u8 {
            return Some(class);
        }
        None
    }

    /// The committed phase.
    pub fn current(&self) -> WorkloadPhase {
        WorkloadPhase::from_u8(self.current.load(Ordering::Relaxed))
    }
}

/// Everything the accounting pass needs to know about one decision.
struct WriteOutcome {
    strategy: Strategy,
    explored: bool,
    wire: usize,
    full: usize,
    shipped: u64,
    /// Exact compressed/full ratio, when this write ran the block
    /// compressor.
    full_pm_sample: Option<u32>,
    /// Exact compressed/parity ratio, when this write ran LZSS over the
    /// parity stream.
    delta_pm_sample: Option<u32>,
    /// Exact bytes static `Compressed` would have shipped, when known.
    exact_compressed: Option<u64>,
    /// Exact bytes static `PrinsCompressed` would have shipped.
    exact_prins_lzss: Option<u64>,
}

/// A [`Replicator`] that picks among the four static strategies per
/// write, per LBA region — see the crate docs for the signal set.
///
/// Thread-safe behind `Arc<dyn Replicator>`: all learned state lives in
/// relaxed atomics, and the parity/full decision for each write comes
/// from that write's own exact scan, so races only blur the moving
/// averages, never correctness.
pub struct AdaptiveReplicator {
    cfg: PolicyConfig,
    table: RegionTable,
    counters: PolicyCounters,
    phase: PhaseDetector,
    #[allow(clippy::type_complexity)]
    hook: RwLock<Option<Box<dyn Fn(WorkloadPhase) + Send + Sync>>>,
    codec: SparseCodec,
    lzss: Lzss,
    prins: PrinsReplicator,
    prins_lzss: PrinsReplicator,
    compressed: CompressedReplicator,
}

impl AdaptiveReplicator {
    /// An adaptive replicator with detached (unregistered) counters.
    pub fn new(cfg: PolicyConfig) -> Self {
        Self::with_counters(cfg, PolicyCounters::detached())
    }

    /// An adaptive replicator whose counters live in `registry` under
    /// `policy_*` names.
    pub fn with_registry(cfg: PolicyConfig, registry: &Registry) -> Self {
        Self::with_counters(cfg, PolicyCounters::registered(registry))
    }

    fn with_counters(cfg: PolicyConfig, counters: PolicyCounters) -> Self {
        Self {
            table: RegionTable::new(cfg.regions, cfg.region_shift),
            phase: PhaseDetector::new(cfg.phase_window),
            counters,
            hook: RwLock::new(None),
            codec: SparseCodec::default(),
            // Match CompressedReplicator::default() so a Compressed
            // pick ships byte-for-byte what the static strategy would.
            lzss: Lzss::default(),
            prins: PrinsReplicator::new(),
            prins_lzss: PrinsReplicator::with_parity_compression(),
            compressed: CompressedReplicator::default(),
            cfg,
        }
    }

    /// The decision and counterfactual counters.
    pub fn counters(&self) -> &PolicyCounters {
        &self.counters
    }

    /// The configuration in effect.
    pub fn config(&self) -> &PolicyConfig {
        &self.cfg
    }

    /// The committed workload phase.
    pub fn phase(&self) -> WorkloadPhase {
        self.phase.current()
    }

    /// Installs the phase-transition hook (the engine points this at its
    /// live pipeline tuning). Called at most once per committed
    /// transition, from whichever writer thread crossed the window.
    pub fn set_phase_hook(&self, hook: impl Fn(WorkloadPhase) + Send + Sync + 'static) {
        *self.hook.write().expect("phase hook lock") = Some(Box::new(hook));
    }

    fn header_len(lba: Lba) -> usize {
        1 + varint_len(lba.index())
    }

    /// Picks a strategy for this write. `wire` is the exact parity wire
    /// length from the caller's scan; ground truth for parity-vs-full.
    fn decide(
        &self,
        lba: Lba,
        new: &[u8],
        segs: usize,
        wire: usize,
    ) -> (&RegionSlot, Strategy, bool) {
        let full = new.len();
        let (slot, fresh) = self.table.slot(lba.index());
        if fresh {
            // First contact (or a direct-mapped takeover): seed both
            // compressibility estimates from the cheap content probe.
            // It is only a proxy for the parity stream's redundancy,
            // but an optimistic prior is byte-safe: a mispredicted
            // compressing pick rescues itself to the smallest plain
            // encoding (see `encode_write_into`), costing CPU, never
            // wire bytes, and the exact ratio it observes corrects the
            // estimate.
            let seed = probe_compressibility_pm(new);
            slot.clear_sampled();
            slot.writes.store(0, Ordering::Relaxed);
            slot.change_pm
                .store(ratio_pm(wire, full), Ordering::Relaxed);
            slot.segments
                .store(segs.min(u32::MAX as usize) as u32, Ordering::Relaxed);
            slot.delta_c_pm.store(seed, Ordering::Relaxed);
            slot.full_c_pm.store(seed, Ordering::Relaxed);
        }
        let nth = slot.writes.fetch_add(1, Ordering::Relaxed).wrapping_add(1);
        slot.ewma(&slot.change_pm, ratio_pm(wire, full), self.cfg.ewma_shift);
        slot.ewma(
            &slot.segments,
            segs.min(u32::MAX as usize) as u32,
            self.cfg.ewma_shift,
        );
        let explore_due = self.cfg.explore_interval > 0 && nth % self.cfg.explore_interval == 0;

        // Estimated payload-body bytes per strategy (the tag+lba header
        // is common to all four and cancels out). The plain image —
        // parity or full, whichever this write's exact scan says is
        // smaller — is the baseline; a compressing variant replaces it
        // only when its estimate clears the configured margin, so
        // marginal content does not flap onto a CPU-burning pick.
        let plain = if wire < full {
            (Strategy::Parity, wire)
        } else {
            (Strategy::Full, full)
        };
        let budget = plain.1 as u64 * u64::from(self.cfg.compress_threshold_pm) / 1000;
        let mut best = plain;
        // Below min_compress_len the LZSS token overhead cannot win;
        // skipping the estimate keeps tiny OLTP writes on the fused,
        // zero-alloc parity path. A parity stream that is not smaller
        // than the block is dominated by the full-image candidates.
        if wire < full && wire >= self.cfg.min_compress_len {
            let delta_c = slot.delta_c_pm.load(Ordering::Relaxed) as usize;
            let est = varint_len(wire as u64) + wire * delta_c / 1000;
            if est as u64 <= budget && est < best.1 {
                best = (Strategy::ParityCompressed, est);
            }
        }
        if full >= self.cfg.min_compress_len {
            let full_c = slot.full_c_pm.load(Ordering::Relaxed) as usize;
            let est = varint_len(full as u64) + full * full_c / 1000;
            if est as u64 <= budget && est < best.1 {
                best = (Strategy::Compressed, est);
            }
        }
        // Compressibility estimates only refresh when a compressor
        // actually runs, so a region that settled on a plain pick is
        // revisited on the exploration schedule — that is how drift
        // toward compressible content is re-detected — and *forced*
        // while the plain family's estimate has never seen an exact
        // sample: the content probe cannot see the parity stream's
        // redundancy (merged-segment gap fill, structured fields), so
        // ground truth is worth one compressor run per region. Both
        // compressed encoders fall back to the plain image when they
        // lose, so a probe costs CPU, never wire bytes.
        let (strategy, explored) = match best.0 {
            Strategy::Parity
                if (explore_due || !slot.is_sampled(RegionSlot::DELTA_SAMPLED))
                    && wire >= self.cfg.min_compress_len =>
            {
                (Strategy::ParityCompressed, true)
            }
            Strategy::Full
                if (explore_due || !slot.is_sampled(RegionSlot::FULL_SAMPLED))
                    && full >= self.cfg.min_compress_len =>
            {
                (Strategy::Compressed, true)
            }
            chosen => (chosen, false),
        };
        // Heavy-tail override: a long parity wire concentrates more
        // bytes than dozens of ordinary writes, and the region EWMAs —
        // averages over those ordinary writes — mispredict exactly such
        // outliers. Run the real compression chain and ship the exact
        // minimum (the encoder and the rescue below ship whichever of
        // compressed-parity / plain parity / compressed-full / raw full
        // is smallest); the compressor run is cheap relative to the
        // payload.
        if wire < full && wire >= self.cfg.exact_trial_len {
            return (slot, Strategy::ParityCompressed, explored);
        }
        (slot, strategy, explored)
    }

    /// Books counters, corrects EWMAs with exact observations, and runs
    /// phase detection. Allocation-free except in
    /// [`CounterfactualMode::Exact`].
    fn account(&self, lba: Lba, old: &[u8], new: &[u8], slot: &RegionSlot, o: WriteOutcome) {
        if let Some(pm) = o.full_pm_sample {
            slot.ewma(&slot.full_c_pm, pm, self.cfg.ewma_shift);
            slot.mark_sampled(RegionSlot::FULL_SAMPLED);
        }
        if let Some(pm) = o.delta_pm_sample {
            slot.ewma(&slot.delta_c_pm, pm, self.cfg.ewma_shift);
            slot.mark_sampled(RegionSlot::DELTA_SAMPLED);
        }

        let c = &self.counters;
        c.writes.inc();
        match o.strategy {
            Strategy::Full => c.pick_full.inc(),
            Strategy::Compressed => c.pick_compressed.inc(),
            Strategy::Parity => c.pick_parity.inc(),
            Strategy::ParityCompressed => c.pick_parity_lzss.inc(),
        }
        if o.explored {
            c.explores.inc();
        }
        c.shipped_bytes.add(o.shipped);

        match self.cfg.counterfactual {
            CounterfactualMode::Off => {}
            CounterfactualMode::Estimate => {
                let hdr = Self::header_len(lba) as u64;
                let full = o.full as u64;
                let wire = o.wire as u64;
                let full_pm = u64::from(slot.full_c_pm.load(Ordering::Relaxed));
                let delta_pm = u64::from(slot.delta_c_pm.load(Ordering::Relaxed));
                let cf_trad = hdr + full;
                // Static PRINS falls back to a full image when the
                // parity would not be smaller.
                let cf_prins = hdr + wire.min(full);
                // Static Compressed never falls back; its estimate may
                // legitimately exceed the full block.
                let cf_comp = o
                    .exact_compressed
                    .unwrap_or_else(|| hdr + varint_len(full) as u64 + full * full_pm / 1000);
                let cf_plzss = o.exact_prins_lzss.unwrap_or_else(|| {
                    if wire < full {
                        hdr + wire.min(varint_len(wire) as u64 + wire * delta_pm / 1000)
                    } else {
                        hdr + full
                    }
                });
                self.book_counterfactuals(cf_trad, cf_comp, cf_prins, cf_plzss, o.shipped);
            }
            CounterfactualMode::Exact => {
                let run = |r: &dyn Replicator| r.encode_write(lba, old, new).len() as u64;
                self.book_counterfactuals(
                    run(&TraditionalReplicator),
                    o.exact_compressed.unwrap_or_else(|| run(&self.compressed)),
                    run(&self.prins),
                    o.exact_prins_lzss.unwrap_or_else(|| run(&self.prins_lzss)),
                    o.shipped,
                );
            }
        }

        if let Some(phase) = self.phase.on_decision(o.strategy.is_parity_family()) {
            c.phase_switches.inc();
            if let Ok(hook) = self.hook.read() {
                if let Some(f) = hook.as_ref() {
                    f(phase);
                }
            }
        }
    }

    fn book_counterfactuals(&self, trad: u64, comp: u64, prins: u64, plzss: u64, shipped: u64) {
        let c = &self.counters;
        c.cf_traditional_bytes.add(trad);
        c.cf_compressed_bytes.add(comp);
        c.cf_prins_bytes.add(prins);
        c.cf_prins_lzss_bytes.add(plzss);
        let oracle = trad.min(comp).min(prins).min(plzss);
        c.regret_bytes.add(shipped.saturating_sub(oracle));
    }
}

impl Replicator for AdaptiveReplicator {
    fn encode_write_into(&self, lba: Lba, old: &[u8], new: &[u8], out: &mut Vec<u8>) {
        debug_assert_eq!(old.len(), new.len(), "images of one device block");
        let base = out.len();
        let full = new.len();
        // The write's one scan: the decision reads its numbers, every
        // parity emit below reads its extents.
        let mut plan = self.codec.plan_delta(old, new);
        let (segs, wire) = (plan.segments(), plan.wire_len());
        let (slot, decided, explored) = self.decide(lba, new, segs, wire);
        // An LZSS image trial written straight behind its header at the
        // end of `out`; returns the whole frame's length.
        let compressed_trial = |out: &mut Vec<u8>| {
            let at = out.len();
            put_compressed(out, lba, full, |out| self.lzss.compress_into(new, out));
            out.len() - at
        };
        let packed_len = |frame: usize| frame - Self::header_len(lba) - varint_len(full as u64);

        let mut strategy = decided;
        let mut full_pm_sample = None;
        let mut delta_pm_sample = None;
        let mut exact_compressed = None;
        let mut exact_prins_lzss = None;
        match decided {
            Strategy::Parity => {
                // The fused zero-alloc path, byte-identical to
                // PrinsReplicator's.
                put_parity(out, lba, |out| plan.encode_into(out));
            }
            Strategy::Full => put_full(out, lba, new),
            Strategy::Compressed => {
                let frame = compressed_trial(out);
                full_pm_sample = Some(ratio_pm(packed_len(frame), full));
                exact_compressed = Some(frame as u64);
                let comp_body = frame - Self::header_len(lba);
                if comp_body < full && (wire >= full || comp_body < wire) {
                    // The trial is the frame.
                } else if wire < full {
                    // Misprediction rescue: the content did not
                    // compress below this write's parity after all.
                    out.truncate(base);
                    put_parity(out, lba, |out| plan.encode_into(out));
                    strategy = Strategy::Parity;
                } else {
                    // Never worse than a raw full image on any write —
                    // unlike static Compressed, which can expand.
                    out.truncate(base);
                    put_full(out, lba, new);
                    strategy = Strategy::Full;
                }
            }
            Strategy::ParityCompressed => {
                // Delegate: the PRINS encoder already holds the
                // parity-vs-compressed-vs-full fallback chain.
                let lzss_won = self.prins_lzss.encode_planned(lba, &mut plan, out);
                let shipped = out.len() - base;
                exact_prins_lzss = Some(shipped as u64);
                delta_pm_sample = if lzss_won {
                    // Compression won: exact ratio of the shipped body.
                    let body = shipped - Self::header_len(lba) - varint_len(wire as u64);
                    Some(ratio_pm(body, wire))
                } else if wire >= self.cfg.min_compress_len * 8 {
                    // Fell back to plain parity: compression lost — but
                    // only count that against the region when the wire
                    // was big enough for compression to have had room.
                    // Near min_compress_len the token overhead always
                    // wins, and a loss there says nothing about the
                    // order-of-magnitude-larger deltas this region may
                    // also carry; recording nothing leaves the slot
                    // unsampled, so the next sizable write runs the
                    // (byte-free) trial at a size that is informative.
                    Some(1020)
                } else {
                    None
                };
                // Misprediction rescue: the parity stream disappointed,
                // but the block content itself still estimates smaller
                // than what's in the buffer (the text-churn shape:
                // dense-but-compressible rewrites whose parity is
                // noise). One extra compressor run, only on the miss —
                // or unconditionally while `full_c_pm` is still an
                // unsampled probe seed, since a guess too pessimistic
                // to clear `est < shipped` would otherwise lock the
                // region out of ever discovering the truth.
                if full >= self.cfg.min_compress_len {
                    let full_c = slot.full_c_pm.load(Ordering::Relaxed) as usize;
                    let est =
                        Self::header_len(lba) + varint_len(full as u64) + full * full_c / 1000;
                    if est < shipped
                        || !slot.is_sampled(RegionSlot::FULL_SAMPLED)
                        || wire >= self.cfg.exact_trial_len
                    {
                        // The trial goes behind the frame it challenges
                        // and replaces it only by winning.
                        let candidate = compressed_trial(out);
                        full_pm_sample = Some(ratio_pm(packed_len(candidate), full));
                        exact_compressed = Some(candidate as u64);
                        if candidate < shipped {
                            out.drain(base..base + shipped);
                            strategy = Strategy::Compressed;
                        } else {
                            out.truncate(base + shipped);
                        }
                    }
                }
            }
        }
        // Exact counterfactuals below re-plan the write through the
        // static strategies; hand the plan's buffers back first.
        drop(plan);

        self.account(
            lba,
            old,
            new,
            slot,
            WriteOutcome {
                strategy,
                explored,
                wire,
                full,
                shipped: (out.len() - base) as u64,
                full_pm_sample,
                delta_pm_sample,
                exact_compressed,
                exact_prins_lzss,
            },
        );
    }

    fn name(&self) -> &'static str {
        "adaptive"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockDevice, BlockSize, MemDevice};
    use prins_repl::ReplicaApplier;
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;
    use std::sync::{Arc, Mutex};

    fn exact_cfg() -> PolicyConfig {
        PolicyConfig {
            counterfactual: CounterfactualMode::Exact,
            ..PolicyConfig::default()
        }
    }

    #[test]
    fn tiny_deltas_pick_parity_and_apply_correctly() {
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let replica = MemDevice::new(BlockSize::kb4(), 4);
        let mut applier = ReplicaApplier::new(&replica);
        let mut rng = rand::rngs::StdRng::seed_from_u64(1);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        replica.write_block(Lba(1), &old).unwrap();
        for i in 0..10u8 {
            let mut new = old.clone();
            new[(i as usize) * 31] ^= 0x5a;
            let wire = adaptive.encode_write(Lba(1), &old, &new);
            assert!(wire.len() < 32, "tiny delta shipped {} bytes", wire.len());
            applier.apply(&wire).unwrap();
            assert_eq!(replica.read_block_vec(Lba(1)).unwrap(), new);
            old = new;
        }
        assert_eq!(adaptive.counters().pick_parity.get(), 10);
        assert_eq!(adaptive.counters().writes.get(), 10);
    }

    #[test]
    fn incompressible_churn_picks_full_not_compressed() {
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(2);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        for _ in 0..10 {
            let mut new = vec![0u8; 4096];
            rng.fill_bytes(&mut new);
            let wire = adaptive.encode_write(Lba(7), &old, &new);
            // Full image + small header; never an expanded LZSS stream.
            assert!(wire.len() <= 4096 + 8, "shipped {}", wire.len());
            old = new;
        }
        assert_eq!(adaptive.counters().pick_full.get(), 10);
        assert_eq!(adaptive.counters().pick_compressed.get(), 0);
    }

    #[test]
    fn compressible_churn_picks_compressed_immediately() {
        let adaptive = AdaptiveReplicator::new(exact_cfg());
        let text: Vec<u8> = "order 17: widgets to warehouse 3; "
            .bytes()
            .cycle()
            .take(4096)
            .collect();
        let mut old = vec![0u8; 4096];
        for i in 0..10u8 {
            // XOR with a per-write constant: every byte changes (full
            // churn, parity is dense) while the LZSS match structure of
            // the text is preserved (XOR is a bijection on grams).
            let new: Vec<u8> = text.iter().map(|b| b ^ (i + 1)).collect();
            let wire = adaptive.encode_write(Lba(9), &old, &new);
            assert!(
                wire.len() < 2048,
                "text block should compress well, shipped {}",
                wire.len()
            );
            old = new;
        }
        let c = adaptive.counters();
        assert!(c.pick_compressed.get() >= 9, "{}", c.pick_compressed.get());
        // Strictly beats shipping full images for this region.
        assert!(c.shipped_bytes.get() < c.cf_traditional_bytes.get() / 2);
    }

    #[test]
    fn exploration_redetects_a_drifting_region() {
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        // Phase A: incompressible churn locks the region onto Full.
        for _ in 0..70 {
            let mut new = vec![0u8; 4096];
            rng.fill_bytes(&mut new);
            adaptive.encode_write(Lba(3), &old, &new);
            old = new;
        }
        // Only the exploration schedule may have tried compression so
        // far (once, at the 64th write), and it must have lost.
        assert!(
            adaptive.counters().pick_compressed.get() <= adaptive.counters().explores.get(),
            "steady-state picks on random churn must be Full"
        );
        let full_before = adaptive.counters().pick_full.get();
        // Phase B: the region's content turns maximally compressible
        // (still full-block churn). Only the exploration schedule can
        // discover this.
        for i in 0..200u8 {
            let new = vec![i.wrapping_add(1); 4096];
            adaptive.encode_write(Lba(3), &old, &new);
            old = new;
        }
        let c = adaptive.counters();
        assert!(c.explores.get() >= 1, "exploration never fired");
        assert!(
            c.pick_compressed.get() >= 100,
            "region never re-detected: {} compressed picks, {} full picks",
            c.pick_compressed.get(),
            c.pick_full.get() - full_before,
        );
    }

    /// Three-zone hostile mix: no static strategy wins everywhere, the
    /// adaptive policy must strictly beat all four on total bytes.
    #[test]
    fn adaptive_beats_every_static_on_a_hostile_mix() {
        let adaptive = AdaptiveReplicator::new(exact_cfg());
        let replica = MemDevice::new(BlockSize::kb4(), 512);
        let mut applier = ReplicaApplier::new(&replica);
        let mut rng = rand::rngs::StdRng::seed_from_u64(4);

        let mut images: HashMap<u64, Vec<u8>> = HashMap::new();
        let mut base = vec![0u8; 4096];
        rng.fill_bytes(&mut base);
        for round in 0..50u32 {
            for zone in 0..3u64 {
                let lba = Lba(zone * 100);
                let old = images
                    .entry(lba.index())
                    .or_insert_with(|| {
                        replica.write_block(lba, &base).unwrap();
                        base.clone()
                    })
                    .clone();
                let new = match zone {
                    // Incompressible, small delta: parity territory.
                    0 => {
                        let mut n = old.clone();
                        for k in 0..8 {
                            n[(round as usize * 97 + k * 13) % 4096] ^= 0xa5;
                        }
                        n
                    }
                    // Compressible full rewrite: compression territory.
                    1 => format!("log line {round}: status ok, latency 3ms \n")
                        .bytes()
                        .cycle()
                        .take(4096)
                        .collect(),
                    // Incompressible full rewrite: raw-full territory.
                    _ => {
                        let mut n = vec![0u8; 4096];
                        rng.fill_bytes(&mut n);
                        n
                    }
                };
                let wire = adaptive.encode_write(lba, &old, &new);
                applier.apply(&wire).unwrap();
                assert_eq!(replica.read_block_vec(lba).unwrap(), new, "zone {zone}");
                images.insert(lba.index(), new);
            }
        }

        let c = adaptive.counters();
        let shipped = c.shipped_bytes.get();
        for (name, cf) in [
            ("traditional", c.cf_traditional_bytes.get()),
            ("compressed", c.cf_compressed_bytes.get()),
            ("prins", c.cf_prins_bytes.get()),
            ("prins+lzss", c.cf_prins_lzss_bytes.get()),
        ] {
            assert!(
                shipped < cf,
                "adaptive ({shipped}) must strictly beat static {name} ({cf})"
            );
        }
    }

    #[test]
    fn phase_transitions_fire_the_hook_with_hysteresis() {
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let seen: Arc<Mutex<Vec<WorkloadPhase>>> = Arc::default();
        let sink = Arc::clone(&seen);
        adaptive.set_phase_hook(move |p| sink.lock().unwrap().push(p));
        assert_eq!(adaptive.phase(), WorkloadPhase::Mixed);

        let mut rng = rand::rngs::StdRng::seed_from_u64(5);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        // 192 small-delta writes: two full windows agree → SmallDelta.
        for i in 0..192usize {
            let mut new = old.clone();
            new[i % 4096] ^= 1;
            adaptive.encode_write(Lba(1), &old, &new);
            old = new;
        }
        assert_eq!(adaptive.phase(), WorkloadPhase::SmallDelta);
        // 192 churn writes: transition to Churn after two windows.
        for _ in 0..192 {
            let mut new = vec![0u8; 4096];
            rng.fill_bytes(&mut new);
            adaptive.encode_write(Lba(1), &old, &new);
            old = new;
        }
        assert_eq!(adaptive.phase(), WorkloadPhase::Churn);
        let seen = seen.lock().unwrap();
        assert_eq!(
            seen.as_slice(),
            [WorkloadPhase::SmallDelta, WorkloadPhase::Churn],
            "exactly one committed transition per sustained shift"
        );
        assert_eq!(adaptive.counters().phase_switches.get(), 2);
    }

    #[test]
    fn one_noisy_window_does_not_flap_the_phase() {
        let det = PhaseDetector::new(4);
        // Two small-delta windows commit SmallDelta.
        let mut switches = vec![];
        for _ in 0..8 {
            if let Some(p) = det.on_decision(true) {
                switches.push(p);
            }
        }
        assert_eq!(switches, [WorkloadPhase::SmallDelta]);
        // One churn window, then back to small deltas: no flap.
        for _ in 0..4 {
            assert_eq!(det.on_decision(false), None);
        }
        for _ in 0..8 {
            assert!(det.on_decision(true).is_none());
        }
        assert_eq!(det.current(), WorkloadPhase::SmallDelta);
    }

    proptest::proptest! {
        /// Whatever the classifier picks, write after write, the bytes
        /// it appends are exactly an owned [`Payload`]: they parse, the
        /// parsed form re-serializes to the same bytes, and its body is
        /// what the classic construction of that strategy carries (the
        /// full image, the zero-run-encoded dense parity, or an LZSS
        /// stream that decompresses to one of them).
        ///
        /// [`Payload`]: prins_repl::Payload
        #[test]
        fn prop_stateful_encode_paths_stay_byte_identical(
            writes in proptest::collection::vec(
                (0u64..4, proptest::collection::vec(proptest::prelude::any::<u8>(), 128)),
                1..24,
            ),
        ) {
            use prins_compress::Codec;
            use prins_repl::{Payload, PayloadBody};
            let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
            let mut images: HashMap<u64, Vec<u8>> = HashMap::new();
            for (lba, new) in &writes {
                let old = images.entry(*lba).or_insert_with(|| vec![0u8; 128]).clone();
                let mut got = vec![0xEEu8]; // pre-existing byte must survive
                adaptive.encode_write_into(Lba(*lba), &old, new, &mut got);
                proptest::prop_assert_eq!(&got[..1], &[0xEEu8][..]);
                let payload = Payload::from_bytes(&got[1..]).unwrap();
                proptest::prop_assert_eq!(&payload.to_bytes()[..], &got[1..]);
                proptest::prop_assert_eq!(payload.lba, Lba(*lba));
                let parity: Vec<u8> = old.iter().zip(new).map(|(o, n)| o ^ n).collect();
                let sparse = SparseCodec::default().encode(&parity).to_bytes();
                match payload.body {
                    PayloadBody::Full(data) => proptest::prop_assert_eq!(&data, new),
                    PayloadBody::Parity(data) => proptest::prop_assert_eq!(data, sparse),
                    PayloadBody::Compressed { block_len, data } => proptest::prop_assert_eq!(
                        &Lzss::default().decompress(&data, block_len).unwrap(), new),
                    PayloadBody::ParityCompressed { sparse_len, data } => proptest::prop_assert_eq!(
                        Lzss::default().decompress(&data, sparse_len).unwrap(), sparse),
                    other => proptest::prop_assert!(false, "unexpected body {other:?}"),
                }
                images.insert(*lba, new.clone());
            }
            proptest::prop_assert_eq!(adaptive.counters().writes.get(), writes.len() as u64);
        }
    }
}
