//! The adaptive replicator: per-region online strategy selection with
//! counterfactual accounting.

use std::sync::atomic::Ordering;

use prins_block::Lba;
use prins_compress::{Abandoned, Lzss};
use prins_obs::Registry;
use prins_parity::{varint_len, DeltaPlan, SparseCodec};
use prins_repl::{
    head_len, put_compressed, put_full, put_parity, PrinsReplicator, ReplicationMode, Replicator,
};

use crate::counters::PolicyCounters;
use crate::probe::probe_compressibility_pm;
use crate::region::{RegionSlot, RegionTable};
use crate::{PolicyConfig, COMPRESS_THRESHOLD_PM, EXPLORE_INTERVAL, REGIONS, REGION_SHIFT};

/// `n * 1000 / d` as a clamped per-mille ratio; empty denominators read
/// as incompressible.
fn ratio_pm(n: usize, d: usize) -> u32 {
    match n.saturating_mul(1000).checked_div(d) {
        Some(pm) => pm.min(2000) as u32,
        None => 1020,
    }
}

/// What running a decision's trial chain shipped and learned.
struct Trials {
    /// The strategy whose frame is in the buffer.
    strategy: ReplicationMode,
    /// Compressed/full ratio this write's block compressor run
    /// observed: exact when the run finished, the ratio over the
    /// prefix it read when it was abandoned.
    full_pm_sample: Option<u32>,
    /// The same for LZSS over the parity stream.
    delta_pm_sample: Option<u32>,
    /// Exact bytes static `Compressed` would have shipped, when a
    /// block compressor run finished.
    exact_compressed: Option<u64>,
    /// Exact bytes static `PrinsCompressed` would have shipped, when
    /// its encoder ran to a frame.
    exact_prins_lzss: Option<u64>,
}

/// Everything the accounting pass needs to know about one decision.
struct WriteOutcome {
    explored: bool,
    wire: usize,
    full: usize,
    shipped: u64,
    trials: Trials,
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
    codec: SparseCodec,
    lzss: Lzss,
    prins_lzss: PrinsReplicator,
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
            table: RegionTable::new(REGIONS, REGION_SHIFT),
            counters,
            codec: SparseCodec::default(),
            // Match CompressedReplicator::default() so a Compressed
            // pick ships byte-for-byte what the static strategy would.
            lzss: Lzss::default(),
            prins_lzss: PrinsReplicator::with_parity_compression(),
            cfg,
        }
    }

    /// The decision and counterfactual counters.
    pub fn counters(&self) -> &PolicyCounters {
        &self.counters
    }

    /// Picks a strategy for this write. `wire` is the exact parity wire
    /// length from the caller's scan; ground truth for parity-vs-full.
    fn decide(
        &self,
        lba: Lba,
        new: &[u8],
        segs: usize,
        wire: usize,
    ) -> (&RegionSlot, ReplicationMode, bool) {
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
        slot.ewma(&slot.change_pm, ratio_pm(wire, full));
        slot.ewma(&slot.segments, segs.min(u32::MAX as usize) as u32);
        let explore_due = nth.is_multiple_of(EXPLORE_INTERVAL);

        // Estimated payload-body bytes per strategy (the tag+lba header
        // is common to all four and cancels out). The plain image —
        // parity or full, whichever this write's exact scan says is
        // smaller — is the baseline; a compressing variant replaces it
        // only when its estimate clears the configured margin, so
        // marginal content does not flap onto a CPU-burning pick.
        let plain = if wire < full {
            (ReplicationMode::Prins, wire)
        } else {
            (ReplicationMode::Traditional, full)
        };
        let budget = plain.1 as u64 * u64::from(COMPRESS_THRESHOLD_PM) / 1000;
        let mut best = plain;
        // Below min_compress_len the LZSS token overhead cannot win;
        // skipping the estimate keeps tiny OLTP writes on the fused,
        // zero-alloc parity path. A parity stream that is not smaller
        // than the block is dominated by the full-image candidates.
        if wire < full && wire >= self.cfg.min_compress_len {
            let delta_c = slot.delta_c_pm.load(Ordering::Relaxed) as usize;
            let est = varint_len(wire as u64) + wire * delta_c / 1000;
            if est as u64 <= budget && est < best.1 {
                best = (ReplicationMode::PrinsCompressed, est);
            }
        }
        if full >= self.cfg.min_compress_len {
            let full_c = slot.full_c_pm.load(Ordering::Relaxed) as usize;
            let est = varint_len(full as u64) + full * full_c / 1000;
            if est as u64 <= budget && est < best.1 {
                best = (ReplicationMode::Compressed, est);
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
            ReplicationMode::Prins
                if (explore_due || !slot.is_sampled(RegionSlot::DELTA_SAMPLED))
                    && wire >= self.cfg.min_compress_len =>
            {
                (ReplicationMode::PrinsCompressed, true)
            }
            ReplicationMode::Traditional
                if (explore_due || !slot.is_sampled(RegionSlot::FULL_SAMPLED))
                    && full >= self.cfg.min_compress_len =>
            {
                (ReplicationMode::Compressed, true)
            }
            chosen => (chosen, false),
        };
        // Heavy-tail override: a long parity wire concentrates more
        // bytes than dozens of ordinary writes, and the region EWMAs —
        // averages over those ordinary writes — mispredict exactly such
        // outliers. Run the real compression chain and ship the exact
        // minimum (`encode_decided` ships whichever of compressed-
        // parity / plain parity / compressed-full is smallest, its
        // second trial bounded by the first's frame).
        if wire < full && wire >= self.cfg.exact_trial_len {
            return (slot, ReplicationMode::PrinsCompressed, explored);
        }
        (slot, strategy, explored)
    }

    /// Books counters and corrects EWMAs with exact observations,
    /// allocation-free. Counterfactuals are exact for the strategies
    /// whose cost is knowable from the scan (`Traditional`, `Prins`) or from
    /// a trial that ran to a frame, and EWMA-estimated for the
    /// compressors otherwise: no strategy that was not picked runs its
    /// encoder for the books.
    fn account(&self, lba: Lba, slot: &RegionSlot, o: WriteOutcome) {
        let t = &o.trials;
        if let Some(pm) = t.full_pm_sample {
            slot.ewma(&slot.full_c_pm, pm);
            slot.mark_sampled(RegionSlot::FULL_SAMPLED);
        }
        if let Some(pm) = t.delta_pm_sample {
            slot.ewma(&slot.delta_c_pm, pm);
            slot.mark_sampled(RegionSlot::DELTA_SAMPLED);
        }

        let c = &self.counters;
        c.writes.inc();
        match t.strategy {
            ReplicationMode::Traditional => c.pick_full.inc(),
            ReplicationMode::Compressed => c.pick_compressed.inc(),
            ReplicationMode::Prins => c.pick_parity.inc(),
            ReplicationMode::PrinsCompressed => c.pick_parity_lzss.inc(),
        }
        if o.explored {
            c.explores.inc();
        }
        c.shipped_bytes.add(o.shipped);

        let hdr = head_len(lba) as u64;
        let full = o.full as u64;
        let wire = o.wire as u64;
        let full_pm = u64::from(slot.full_c_pm.load(Ordering::Relaxed));
        let delta_pm = u64::from(slot.delta_c_pm.load(Ordering::Relaxed));
        let cf_trad = hdr + full;
        // Static PRINS falls back to a full image when the parity would
        // not be smaller.
        let cf_prins = hdr + wire.min(full);
        // Static Compressed never falls back; its estimate may
        // legitimately exceed the full block.
        let cf_comp = t
            .exact_compressed
            .unwrap_or_else(|| hdr + varint_len(full) as u64 + full * full_pm / 1000);
        let cf_plzss = t.exact_prins_lzss.unwrap_or_else(|| {
            if wire < full {
                hdr + wire.min(varint_len(wire) as u64 + wire * delta_pm / 1000)
            } else {
                hdr + full
            }
        });
        self.book_counterfactuals(cf_trad, cf_comp, cf_prins, cf_plzss, o.shipped);
    }

    /// Appends the frame for a write `decide` settled on: the decided
    /// strategy's, or — where that strategy is a compressing one — the
    /// smallest of the candidates its rescue chain admits, which is
    /// what running every one of them to the end and comparing would
    /// ship (`tests::run_every_trial` does exactly that). A trial that
    /// is not the first carries the length of the frame it has to beat
    /// and stops once it cannot; ties go to the parity family.
    fn encode_decided(
        &self,
        lba: Lba,
        plan: &mut DeltaPlan<'_>,
        slot: &RegionSlot,
        decided: ReplicationMode,
        out: &mut Vec<u8>,
    ) -> Trials {
        let base = out.len();
        let new = plan.new_image();
        let (full, wire) = (new.len(), plan.wire_len());
        let head = head_len(lba);
        let mut t = Trials {
            strategy: decided,
            full_pm_sample: None,
            delta_pm_sample: None,
            exact_compressed: None,
            exact_prins_lzss: None,
        };
        // The ratio an abandoned run saw over the prefix it read — if
        // that was enough input for compression to have had room (the
        // bar a lost parity trial has to clear to count, below).
        let prefix_pm = |a: Abandoned| {
            (a.consumed >= (self.cfg.min_compress_len * 8).max(1))
                .then(|| ratio_pm(a.produced, a.consumed))
        };
        // An LZSS image trial written straight behind its header at
        // the end of `out` and kept if its frame is at most `at_most`
        // bytes; returns the frame's length.
        let image_trial = |out: &mut Vec<u8>, t: &mut Trials, at_most: usize| {
            let at = out.len();
            let mut trial = Err(Abandoned::default());
            put_compressed(out, lba, full, |out| {
                if let Some(limit) = at_most.checked_sub(out.len() - at) {
                    trial = self.lzss.compress_bounded(new, limit, out);
                }
            });
            match trial {
                Ok(packed) => {
                    let frame = out.len() - at;
                    t.full_pm_sample = Some(ratio_pm(packed, full));
                    t.exact_compressed = Some(frame as u64);
                    Some(frame)
                }
                Err(abandoned) => {
                    out.truncate(at);
                    t.full_pm_sample = prefix_pm(abandoned);
                    None
                }
            }
        };
        // The PRINS encoder's frame (LZSS parity, plain parity where
        // that is smaller, a raw image where the parity is no smaller
        // than the block), kept if it is at most `at_most` bytes.
        let parity_trial =
            |out: &mut Vec<u8>, plan: &mut DeltaPlan<'_>, t: &mut Trials, at_most| {
                let at = out.len();
                match self.prins_lzss.encode_planned(lba, plan, at_most, out) {
                    Ok(lzss_won) => {
                        let frame = out.len() - at;
                        t.exact_prins_lzss = Some(frame as u64);
                        t.delta_pm_sample = if lzss_won {
                            // Compression won: exact ratio of the body.
                            Some(ratio_pm(frame - head - varint_len(wire as u64), wire))
                        } else if wire >= self.cfg.min_compress_len * 8 {
                            // Fell back to plain parity: compression lost —
                            // but only count that against the region when
                            // the wire was big enough for compression to
                            // have had room. Near min_compress_len the
                            // token overhead always wins, and a loss there
                            // says nothing about the order-of-magnitude-
                            // larger deltas this region may also carry;
                            // recording nothing leaves the slot unsampled,
                            // so the next sizable write runs the (byte-
                            // free) trial at a size that is informative.
                            Some(1020)
                        } else {
                            None
                        };
                        Some(frame)
                    }
                    Err(abandoned) => {
                        t.delta_pm_sample = prefix_pm(abandoned);
                        None
                    }
                }
            };

        match decided {
            ReplicationMode::Prins => {
                // The fused zero-alloc path, byte-identical to
                // PrinsReplicator's.
                put_parity(out, lba, |out| plan.encode_into(out));
            }
            ReplicationMode::Traditional => put_full(out, lba, new),
            ReplicationMode::Compressed => {
                // The trial is the frame if it comes in under the plain
                // encoding it would otherwise be rescued to.
                if image_trial(out, &mut t, head + wire.min(full) - 1).is_none() {
                    if wire < full {
                        // Misprediction rescue: the content did not
                        // compress below this write's parity after all.
                        put_parity(out, lba, |out| plan.encode_into(out));
                        t.strategy = ReplicationMode::Prins;
                    } else {
                        // Never worse than a raw full image on any
                        // write — unlike static Compressed, which can
                        // expand.
                        put_full(out, lba, new);
                        t.strategy = ReplicationMode::Traditional;
                    }
                }
            }
            ReplicationMode::PrinsCompressed => {
                let heavy = wire >= self.cfg.exact_trial_len;
                let can_compress = full >= self.cfg.min_compress_len;
                let full_c = slot.full_c_pm.load(Ordering::Relaxed) as usize;
                let image_est = head + varint_len(full as u64) + full * full_c / 1000;
                let delta_c = slot.delta_c_pm.load(Ordering::Relaxed) as usize;
                let parity_est = head + wire.min(varint_len(wire as u64) + wire * delta_c / 1000);
                if heavy && can_compress && image_est < parity_est {
                    // Heavy tail, image expected to win (the text-churn
                    // shape: dense-but-compressible rewrites whose
                    // parity is noise): it runs first and unbounded,
                    // and the parity trial behind it stops as soon as
                    // it cannot come in at or under that frame.
                    let image = image_trial(out, &mut t, usize::MAX).expect("no bound");
                    if parity_trial(out, plan, &mut t, image).is_some() {
                        out.drain(base..base + image);
                    } else {
                        t.strategy = ReplicationMode::Compressed;
                    }
                } else {
                    // Delegate: the PRINS encoder already holds the
                    // parity-vs-compressed-vs-full fallback chain.
                    let shipped = parity_trial(out, plan, &mut t, usize::MAX).expect("no bound");
                    // Misprediction rescue: the parity stream
                    // disappointed, but the block content itself still
                    // estimates smaller than what's in the buffer. One
                    // more compressor run, only on the miss — or
                    // unconditionally on a heavy-tail wire (see
                    // `decide`), or while `full_c_pm` is still an
                    // unsampled probe seed, since a guess too
                    // pessimistic to clear `est < shipped` would
                    // otherwise lock the region out of ever discovering
                    // the truth. The trial goes behind the frame it
                    // challenges, bounded by it, and replaces it only
                    // by coming in strictly under.
                    let rescue =
                        image_est < shipped || !slot.is_sampled(RegionSlot::FULL_SAMPLED) || heavy;
                    if can_compress && rescue && image_trial(out, &mut t, shipped - 1).is_some() {
                        out.drain(base..base + shipped);
                        t.strategy = ReplicationMode::Compressed;
                    }
                }
            }
        }
        t
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
        // The write's one scan: the decision reads its numbers, every
        // parity emit of the chain reads its extents.
        let mut plan = self.codec.plan_delta(old, new);
        let (segs, wire) = (plan.segments(), plan.wire_len());
        let (slot, decided, explored) = self.decide(lba, new, segs, wire);
        let trials = self.encode_decided(lba, &mut plan, slot, decided, out);
        self.account(
            lba,
            slot,
            WriteOutcome {
                explored,
                wire,
                full: new.len(),
                shipped: (out.len() - base) as u64,
                trials,
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
    use prins_repl::{CompressedReplicator, ReplicaApplier, TraditionalReplicator};
    use rand::{RngExt, SeedableRng};
    use std::collections::HashMap;

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
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let mut traditional = 0;
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
            traditional += TraditionalReplicator.encode_write(Lba(9), &old, &new).len() as u64;
            old = new;
        }
        let c = adaptive.counters();
        assert!(c.pick_compressed.get() >= 9, "{}", c.pick_compressed.get());
        // Strictly beats shipping full images for this region.
        assert!(c.shipped_bytes.get() < traditional / 2);
    }

    #[test]
    fn exploration_redetects_a_drifting_region() {
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        let mut old = vec![0u8; 4096];
        rng.fill_bytes(&mut old);
        // Phase A: incompressible churn locks the region onto Traditional.
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
            "steady-state picks on random churn must be Traditional"
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
        let adaptive = AdaptiveReplicator::new(PolicyConfig::default());
        let statics = ReplicationMode::ALL.map(|mode| (mode, mode.replicator()));
        let mut static_bytes = [0u64; 4];
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
                for ((_, replicator), total) in statics.iter().zip(&mut static_bytes) {
                    *total += replicator.encode_write(lba, &old, &new).len() as u64;
                }
                images.insert(lba.index(), new);
            }
        }

        let shipped = adaptive.counters().shipped_bytes.get();
        for ((mode, _), cf) in statics.iter().zip(static_bytes) {
            assert!(
                shipped < cf,
                "adaptive ({shipped}) must strictly beat static {mode} ({cf})"
            );
        }
    }

    /// The trial chain as it stood before its trials carried budgets,
    /// kept as the oracle for [`AdaptiveReplicator::encode_decided`]:
    /// every compressor run a decision admits goes to the end of its
    /// input — parity first, always — and the finished frames are
    /// compared afterwards.
    fn run_every_trial(
        a: &AdaptiveReplicator,
        lba: Lba,
        plan: &mut DeltaPlan<'_>,
        slot: &RegionSlot,
        decided: ReplicationMode,
        out: &mut Vec<u8>,
    ) -> Trials {
        let base = out.len();
        let new = plan.new_image();
        let (full, wire) = (new.len(), plan.wire_len());
        let compressed_trial = |out: &mut Vec<u8>| {
            let at = out.len();
            put_compressed(out, lba, full, |out| a.lzss.compress_into(new, out));
            out.len() - at
        };
        let packed_len = |frame: usize| frame - head_len(lba) - varint_len(full as u64);
        let mut t = Trials {
            strategy: decided,
            full_pm_sample: None,
            delta_pm_sample: None,
            exact_compressed: None,
            exact_prins_lzss: None,
        };
        match decided {
            ReplicationMode::Prins => put_parity(out, lba, |out| plan.encode_into(out)),
            ReplicationMode::Traditional => put_full(out, lba, new),
            ReplicationMode::Compressed => {
                let frame = compressed_trial(out);
                t.full_pm_sample = Some(ratio_pm(packed_len(frame), full));
                t.exact_compressed = Some(frame as u64);
                let comp_body = frame - head_len(lba);
                if comp_body < full && (wire >= full || comp_body < wire) {
                    // The trial is the frame.
                } else if wire < full {
                    out.truncate(base);
                    put_parity(out, lba, |out| plan.encode_into(out));
                    t.strategy = ReplicationMode::Prins;
                } else {
                    out.truncate(base);
                    put_full(out, lba, new);
                    t.strategy = ReplicationMode::Traditional;
                }
            }
            ReplicationMode::PrinsCompressed => {
                let lzss_won = a
                    .prins_lzss
                    .encode_planned(lba, plan, usize::MAX, out)
                    .unwrap();
                let shipped = out.len() - base;
                t.exact_prins_lzss = Some(shipped as u64);
                t.delta_pm_sample = if lzss_won {
                    let body = shipped - head_len(lba) - varint_len(wire as u64);
                    Some(ratio_pm(body, wire))
                } else if wire >= a.cfg.min_compress_len * 8 {
                    Some(1020)
                } else {
                    None
                };
                if full >= a.cfg.min_compress_len {
                    let full_c = slot.full_c_pm.load(Ordering::Relaxed) as usize;
                    let est = head_len(lba) + varint_len(full as u64) + full * full_c / 1000;
                    if est < shipped
                        || !slot.is_sampled(RegionSlot::FULL_SAMPLED)
                        || wire >= a.cfg.exact_trial_len
                    {
                        let candidate = compressed_trial(out);
                        t.full_pm_sample = Some(ratio_pm(packed_len(candidate), full));
                        t.exact_compressed = Some(candidate as u64);
                        if candidate < shipped {
                            out.drain(base..base + shipped);
                            t.strategy = ReplicationMode::Compressed;
                        } else {
                            out.truncate(base + shipped);
                        }
                    }
                }
            }
        }
        t
    }

    /// Word-sampled text, like the prose the hostile mix rewrites.
    fn prose(rng: &mut rand::rngs::StdRng, n: usize) -> Vec<u8> {
        const WORDS: [&str; 12] = [
            "parity ",
            "block ",
            "replication ",
            "the ",
            "of ",
            "storage.\n",
            "write ",
            "node ",
            "engine ",
            "a ",
            "policy ",
            "network ",
        ];
        let mut out = Vec::with_capacity(n + 16);
        while out.len() < n {
            out.extend_from_slice(WORDS[rng.random_range(0..WORDS.len())].as_bytes());
        }
        out.truncate(n);
        out
    }

    /// One (old, new) pair of 4 KB images of the given shape.
    fn write_shape(shape: u8, rng: &mut rand::rngs::StdRng) -> (Vec<u8>, Vec<u8>) {
        const BS: usize = 4096;
        let mut noise = vec![0u8; BS];
        rng.fill_bytes(&mut noise);
        // `new` = `old` with `len` bytes replaced by fresh noise.
        let patched = |rng: &mut rand::rngs::StdRng, old: &[u8], len: usize| {
            let mut new = old.to_vec();
            let at = rng.random_range(0..=BS - len);
            rng.fill_bytes(&mut new[at..at + len]);
            new
        };
        match shape {
            // Prose over prose: the parity is XOR noise a few bytes
            // either side of the block, the image packs 3:1.
            0 => (prose(rng, BS), prose(rng, BS)),
            // Sparse binary: a handful of flipped bytes.
            1 => {
                let mut new = noise.clone();
                for _ in 0..rng.random_range(1..=8) {
                    new[rng.random_range(0..BS)] ^= rng.random_range(1..=255u8);
                }
                (noise, new)
            }
            // Dense binary: nothing survives, nothing compresses.
            2 => {
                let new = patched(rng, &noise, BS);
                (noise, new)
            }
            3 => (vec![0u8; BS], prose(rng, BS)),
            4 => (prose(rng, BS), vec![0u8; BS]),
            // A wire either side of the default `exact_trial_len`.
            5 => {
                let len = rng.random_range(1024 - 24..1024 + 8);
                let new = patched(rng, &noise, len);
                (noise, new)
            }
            // The same on text: the parity's gaps compress a little.
            6 => {
                let old = prose(rng, BS);
                let len = rng.random_range(1024 - 24..1024 + 8);
                let at = rng.random_range(0..=BS - len);
                let mut new = old.clone();
                new[at..at + len].copy_from_slice(&prose(rng, len));
                (old, new)
            }
            // A wire either side of the block: all but a few bytes of
            // noise replaced.
            7 => {
                let len = rng.random_range(BS - 40..=BS);
                let new = patched(rng, &noise, len);
                (noise, new)
            }
            // A big incompressible delta over an incompressible block:
            // plain parity wins, the image trial is the one cut short.
            8 => {
                let len = rng.random_range(1100..3000);
                let new = patched(rng, &noise, len);
                (noise, new)
            }
            // Text whose parity against its predecessor repeats: LZSS
            // parity and the LZSS image are both real contenders.
            _ => {
                let old = prose(rng, BS);
                let mask = rng.random_range(1..=255u8);
                let from = rng.random_range(0..BS / 2);
                let mut new = old.clone();
                new[from..from + BS / 2].iter_mut().for_each(|b| *b ^= mask);
                (old, new)
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(192))]

        /// The budgeted, ordered chain against the run-everything one,
        /// write after write on one region, from an arbitrary prior
        /// region state (including the two that force each leg order on
        /// a heavy-tail wire): the same bytes, the same strategy booked,
        /// everything a finished trial learned identical — and on a
        /// heavy-tail wire never more bytes than any static strategy.
        #[test]
        fn prop_budgeted_chain_ships_what_running_every_trial_would(
            seed in proptest::prelude::any::<u64>(),
            shapes in proptest::collection::vec(0u8..10, 1..6),
            estimates in (0u32..=1100, 0u32..=1100),
            forced_order in 0u8..4,
            sampled in 0u8..4,
            prior_writes in 0u32..200,
            explore_due in proptest::prelude::any::<bool>(),
            seeded in proptest::prelude::any::<bool>(),
            exact_everywhere in proptest::prelude::any::<bool>(),
        ) {
            let cfg = PolicyConfig {
                exact_trial_len: if exact_everywhere { 0 } else { PolicyConfig::default().exact_trial_len },
                ..PolicyConfig::default()
            };
            let a = AdaptiveReplicator::new(cfg);
            let lba = Lba(700);
            if seeded {
                // Claim the region and plant the prior state; left
                // alone, the first write seeds it from the probe.
                let (full_c, delta_c) = match forced_order {
                    0 => (100, 1020), // image leg first
                    1 => (1020, 100), // parity leg first
                    _ => estimates,
                };
                let (slot, _) = a.table.slot(lba.index());
                slot.full_c_pm.store(full_c, Ordering::Relaxed);
                slot.delta_c_pm.store(delta_c, Ordering::Relaxed);
                // The next write is the region's 64th: exploration fires.
                let prior_writes = if explore_due { 63 } else { prior_writes };
                slot.writes.store(prior_writes, Ordering::Relaxed);
                slot.clear_sampled();
                slot.mark_sampled(sampled);
            }
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            for shape in shapes {
                let (old, new) = write_shape(shape, &mut rng);
                let mut plan = a.codec.plan_delta(&old, &new);
                let (segs, wire) = (plan.segments(), plan.wire_len());
                let (slot, decided, explored) = a.decide(lba, &new, segs, wire);

                let mut want = vec![0xEEu8];
                let oracle = run_every_trial(&a, lba, &mut a.codec.plan_delta(&old, &new), slot, decided, &mut want);
                let mut got = vec![0xEEu8];
                let trials = a.encode_decided(lba, &mut plan, slot, decided, &mut got);
                drop(plan);

                proptest::prop_assert_eq!(&got, &want, "shape {} decided {:?} wire {}", shape, decided, wire);
                proptest::prop_assert_eq!(trials.strategy, oracle.strategy);
                // A trial that ran to a frame learned what the oracle's
                // did; one cut short reports less, never something else.
                if trials.exact_compressed.is_some() {
                    proptest::prop_assert_eq!(trials.exact_compressed, oracle.exact_compressed);
                    proptest::prop_assert_eq!(trials.full_pm_sample, oracle.full_pm_sample);
                }
                if trials.exact_prins_lzss.is_some() {
                    proptest::prop_assert_eq!(trials.exact_prins_lzss, oracle.exact_prins_lzss);
                    proptest::prop_assert_eq!(trials.delta_pm_sample, oracle.delta_pm_sample);
                }

                let full = new.len();
                if wire < full && wire >= cfg.exact_trial_len && full >= cfg.min_compress_len {
                    let shipped = got.len() - 1;
                    let statics = |r: &dyn Replicator| r.encode_write(lba, &old, &new).len();
                    proptest::prop_assert!(shipped <= statics(&TraditionalReplicator));
                    proptest::prop_assert!(shipped <= statics(&CompressedReplicator::default()));
                    proptest::prop_assert!(shipped <= statics(&a.prins_lzss));
                    // `packed < wire` lets an LZSS parity frame run up
                    // to its length prefix, less a byte, over plain.
                    proptest::prop_assert!(
                        shipped < statics(&PrinsReplicator::new()) + varint_len(wire as u64).max(1)
                    );
                }

                a.account(lba, slot, WriteOutcome {
                    explored,
                    wire,
                    full,
                    shipped: (got.len() - 1) as u64,
                    trials,
                });
            }
        }
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
