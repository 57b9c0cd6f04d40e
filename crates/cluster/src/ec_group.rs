//! Erasure-coded replica groups: k-of-n striping with PRINS-style
//! delta strip updates and repair-bandwidth-aware rebuild.
//!
//! A 3-way mirror stores every byte three times. An erasure-coded
//! group with `k` data strips and `m` parity strips tolerates `m`
//! node losses at a storage cost of `(k + m) / k` — half of
//! mirroring's 3× at `k = 4, m = 2` — while keeping PRINS's wire
//! economics: a small write ships one sparse delta `Δd` to the data
//! strip's owner and the coefficient-scaled deltas `Δp_i = c_i · Δd`
//! to each parity owner. Code linearity makes the parity read-
//! modify-write exact, and `c · 0 = 0` keeps sparse deltas sparse.
//!
//! ## Layout
//!
//! Logical LBA `l` lives at column `l % k` of stripe `l / k`. Strip
//! placement rotates with the stripe index so load (and loss) spreads
//! evenly: stripe `s`'s strip for role `r` (roles `0..k` are data
//! columns, `k..n` parity) sits on node `(r + s) % n`, at node-local
//! address `Lba(s)`. A node therefore holds exactly one strip of
//! every stripe, and losing a node loses one strip per stripe — the
//! single-erasure rebuild case.
//!
//! ## Repair bandwidth
//!
//! Rebuilding a lost strip reads exactly `k` surviving strips (not
//! `n - 1`, and never a full logical image): each survivor answers a
//! strip-read request with a zero-run-encoded image, the codec
//! reconstructs the lost strip, and the replacement receives it as a
//! coefficient-1 delta over its zeroed disk — also sparse. Wire bytes
//! per stripe are therefore bounded by roughly `(k + 1)/k` times the
//! survivors' image bytes, and every byte is counted in the
//! [`EcRebuildReport`] a rebuild returns so the bound is testable.

use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, Lba};
use prins_net::{Clock, Transport};
use prins_obs::{Registry, TraceSink};
use prins_parity::{ErasureCodec, SparseCodec};
use prins_repl::{put_strip_delta, Link, ReplError, Request, ACK, STRIP_ACK};

use crate::probe::{Plane, Probe, Tagged};
use crate::ClusterError;

/// Maps `(stripe, role)` to a node: rotated placement, so every node
/// holds one strip of every stripe and rebuild load spreads evenly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcPlacement {
    /// Data strips per stripe.
    pub k: usize,
    /// Parity strips per stripe.
    pub m: usize,
}

impl EcPlacement {
    /// Total strips (= nodes) per stripe.
    #[must_use]
    pub(crate) fn n(&self) -> usize {
        self.k + self.m
    }

    /// The node holding role `r` (data column if `< k`, else parity
    /// `r - k`) of stripe `s`.
    #[must_use]
    pub fn node_for(&self, stripe: u64, role: usize) -> usize {
        (role + (stripe as usize % self.n())) % self.n()
    }

    /// The role node `node` plays in stripe `s` — the inverse of
    /// [`node_for`](Self::node_for).
    #[must_use]
    pub(crate) fn role_of(&self, stripe: u64, node: usize) -> usize {
        let n = self.n();
        (node + n - (stripe as usize % n)) % n
    }
}

/// One strip-holding node of the group.
struct EcNode {
    /// The connection. Nothing stays in flight on it between calls:
    /// every frame is collected before the call that sent it returns.
    link: Link<Tagged<()>>,
    down: bool,
}

/// Outcome of one erasure-coded write.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcWriteOutcome {
    /// Strip-delta frames acknowledged (1 data + up to m parity).
    pub acked: usize,
    /// Frames skipped because their target node is down.
    pub skipped: usize,
    /// Payload bytes put on the wire for this write.
    pub wire_bytes: u64,
}

/// Outcome of one node rebuild.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EcRebuildReport {
    /// Stripes reconstructed onto the replacement node.
    pub stripes: u64,
    /// Wire bytes moved: strip-read requests, survivor images, and
    /// rebuilt strip shipments.
    pub wire_bytes: u64,
    /// Sum of the k surviving strips' *dense* image bytes per stripe —
    /// the denominator of the repair-bandwidth bound.
    pub survivor_image_bytes: u64,
}

/// Configuration for an [`EcGroup`].
#[derive(Clone, Copy, Debug)]
pub struct EcConfig {
    /// How long to wait for each acknowledgement.
    pub ack_timeout: Duration,
}

impl Default for EcConfig {
    fn default() -> Self {
        Self {
            ack_timeout: Duration::from_secs(10),
        }
    }
}

/// A primary striping its logical volume k-of-n across strip-holding
/// nodes, with PRINS delta updates to data *and* parity strips.
///
/// `device` holds the primary's logical image (`stripes × k` blocks);
/// each of the `k + m` transports leads to a node whose device holds
/// `stripes` strip blocks and whose applier uses the same codec (see
/// [`prins_repl::serve_sim`] and
/// [`ReplicaApplier::with_codec`](prins_repl::ReplicaApplier::with_codec)).
///
/// The group is closed-loop: every strip-delta frame is acknowledged
/// before [`write`](Self::write) returns, so the strips always equal
/// `encode(logical)` between writes — the invariant the simulator
/// checks byte-exactly.
pub struct EcGroup<D, C> {
    device: D,
    codec: C,
    placement: EcPlacement,
    sparse: SparseCodec,
    /// The image the current write replaces, reused across writes.
    old: Vec<u8>,
    nodes: Vec<EcNode>,
    /// How long to wait for each acknowledgement.
    ack_timeout: Duration,
    stripes: u64,
    block_size: usize,
    /// Stripes written while any node was down — the strips a rebuild
    /// must not trust on the replacement.
    dirty_stripes: BTreeSet<u64>,
    probe: Probe,
}

impl<D: BlockDevice, C: ErasureCodec> EcGroup<D, C> {
    /// Wraps the primary's logical `device` and one transport per
    /// strip-holding node.
    ///
    /// # Panics
    ///
    /// Panics unless `transports.len() == codec.total_strips()` and
    /// the device's block count is a multiple of `codec.data_strips()`
    /// (whole stripes only).
    pub fn new(device: D, codec: C, config: EcConfig, transports: Vec<Box<dyn Transport>>) -> Self {
        let k = codec.data_strips();
        let m = codec.parity_strips();
        assert_eq!(
            transports.len(),
            k + m,
            "one transport per strip-holding node"
        );
        let blocks = device.geometry().num_blocks();
        assert_eq!(blocks % k as u64, 0, "logical volume must be whole stripes");
        let block_size = device.geometry().block_size().bytes();
        Self {
            device,
            codec,
            placement: EcPlacement { k, m },
            sparse: SparseCodec::default(),
            old: Vec::new(),
            nodes: transports
                .into_iter()
                .enumerate()
                .map(|(idx, transport)| EcNode {
                    link: Link::new(idx, transport),
                    down: false,
                })
                .collect(),
            ack_timeout: config.ack_timeout,
            stripes: blocks / k as u64,
            block_size,
            dirty_stripes: BTreeSet::new(),
            probe: Probe::default(),
        }
    }

    /// Attaches a metrics registry: strip writes, parity-update and
    /// rebuild wire bytes, decode failures, a rebuild-duration
    /// histogram, and `ec-rebuild` events.
    pub fn attach_observer(&mut self, registry: Arc<Registry>, clock: Arc<dyn Clock>) {
        self.probe.observe(Plane::Ec, registry, clock);
    }

    /// Attaches a trace sink: every logical write mints a
    /// deterministic [`TraceId`](prins_obs::TraceId) tagged with `shard` and records one
    /// `strip-data` / `strip-parity` hop per strip-delta frame (lane =
    /// node index) plus a `strip-ack` hop per acknowledgement, so tail
    /// attribution sees the full k-of-n fan-out of a slow write.
    pub fn attach_tracer(&mut self, sink: Arc<TraceSink>, shard: u32, clock: Arc<dyn Clock>) {
        self.probe.trace_into(sink, shard, clock);
    }

    /// The placement map.
    pub fn placement(&self) -> EcPlacement {
        self.placement
    }

    /// Stripes in the group.
    pub fn stripes(&self) -> u64 {
        self.stripes
    }

    /// The primary's logical device.
    pub fn device(&self) -> &D {
        &self.device
    }

    /// Logical bytes the group stores (the user-visible capacity).
    pub fn logical_bytes(&self) -> u64 {
        self.stripes * self.placement.k as u64 * self.block_size as u64
    }

    /// Physical bytes across all strips — `(k + m)/k ×` logical, the
    /// storage-efficiency numerator (1.5× at k=4, m=2, vs 3× for a
    /// 3-way mirror).
    pub fn physical_bytes(&self) -> u64 {
        self.stripes * self.placement.n() as u64 * self.block_size as u64
    }

    /// Marks node `idx` down: writes stop flowing to its strips (the
    /// stripes touched meanwhile are remembered as dirty).
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index.
    pub fn mark_down(&mut self, idx: usize) -> Result<(), ClusterError> {
        self.check_idx(idx)?;
        self.nodes[idx].down = true;
        Ok(())
    }

    /// Swaps in a replacement node on slot `idx`: a fresh transport to
    /// a wiped device behind a new applier. The slot stays down until
    /// [`rebuild`](Self::rebuild) repopulates its strips; the epoch
    /// bumps so responses stranded on the old link identify themselves.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index.
    pub fn replace_node(
        &mut self,
        idx: usize,
        transport: Box<dyn Transport>,
    ) -> Result<(), ClusterError> {
        self.check_idx(idx)?;
        let node = &mut self.nodes[idx];
        node.link.reconnect(transport);
        node.down = true;
        Ok(())
    }

    /// Stripes written while some node was down.
    pub fn dirty_stripes(&self) -> usize {
        self.dirty_stripes.len()
    }

    /// Applies one logical write and ships its strip deltas: `Δd` to
    /// the data strip's owner, `c_i · Δd` to each parity owner —
    /// sparse on the wire in both cases, closed-loop acknowledged.
    ///
    /// # Errors
    ///
    /// * [`ClusterError::Block`] if the primary write fails (nothing
    ///   was shipped),
    /// * [`ClusterError::Repl`] on a transport or acknowledgement
    ///   failure — the group does not self-degrade; tests and the
    ///   simulator decide when a node is [`mark_down`](Self::mark_down).
    pub fn write(&mut self, lba: Lba, new: &[u8]) -> Result<EcWriteOutcome, ClusterError> {
        let k = self.placement.k;
        let stripe = lba.index() / k as u64;
        let col = (lba.index() % k as u64) as usize;
        self.old
            .resize(self.device.geometry().block_size().bytes(), 0);
        self.device.read_block(lba, &mut self.old)?;
        self.device.write_block_over(lba, &self.old, new)?;

        // Δd = old ⊕ new in every GF(2^w): one scan of the two images,
        // straight to the stream every strip owner receives.
        let sparse = self.sparse.plan_delta(&self.old, new).to_parity();
        // One trace per logical write; its hold keeps it open across
        // the strip fan-out and is released after the last
        // acknowledgement is collected below.
        let tid = self.probe.begin();
        let mut outcome = EcWriteOutcome {
            acked: 0,
            skipped: 0,
            wire_bytes: 0,
        };
        // Data strip first, then each parity strip. Sends are
        // pipelined; acks are collected after (every target is a
        // distinct node under rotated placement).
        let mut sent_to: Vec<usize> = Vec::with_capacity(1 + self.placement.m);
        let mut failed = None;
        for role in std::iter::once(col).chain(k..self.placement.n()) {
            let node = self.placement.node_for(stripe, role);
            if self.nodes[node].down {
                self.dirty_stripes.insert(stripe);
                outcome.skipped += 1;
                continue;
            }
            let coeff = if role < k {
                1
            } else {
                self.codec.coefficient(role - k, col)
            };
            let fill =
                |out: &mut Vec<u8>| put_strip_delta(out, Lba(stripe), coeff, sparse.as_bytes());
            match self.nodes[node].link.send((tid, ()), ACK, fill) {
                Ok(sealed_len) => {
                    outcome.wire_bytes += sealed_len as u64;
                    self.probe.strip_sent(tid, node, role >= k, sealed_len);
                    sent_to.push(node);
                }
                Err(e) => {
                    failed = Some(e);
                    break;
                }
            }
        }
        // Every strip that left is collected, whatever came before it:
        // an acknowledgement left queued would answer the *next*
        // write's strip in its place.
        for node in sent_to {
            let link = &mut self.nodes[node].link;
            let ack = self.probe.collect(node, link, self.ack_timeout);
            match ack.answer {
                Ok(_) => {
                    self.probe.strip_acked(tid, node);
                    outcome.acked += 1;
                }
                Err(e) => {
                    self.probe.ack_failed(node, tid, ack.waited, &e);
                    failed.get_or_insert(e);
                }
            }
        }
        self.probe.released(tid);
        match failed {
            Some(e) => Err(e.into()),
            None => Ok(outcome),
        }
    }

    /// Fetches the strip image node `node` holds for `stripe` — a
    /// CRC-protected, zero-run-encoded read off the node's own disk —
    /// and returns the dense strip plus the wire bytes both directions
    /// cost.
    ///
    /// # Errors
    ///
    /// Transport failures, a corrupted response, or a node that
    /// refuses the read (its own media check failed:
    /// [`ReplError::ChecksumMismatch`]). A response stranded from before
    /// the node's current epoch is dropped, never taken for the strip.
    pub(crate) fn fetch_strip(
        &mut self,
        node: usize,
        stripe: u64,
    ) -> Result<(Vec<u8>, u64), ClusterError> {
        self.check_idx(node)?;
        let fill = |out: &mut Vec<u8>| Request::Strip(Lba(stripe)).put(out);
        let link = &mut self.nodes[node].link;
        let (req_len, answer) =
            self.probe
                .request(node, link, self.ack_timeout, (None, ()), STRIP_ACK, fill);
        let resp = answer?;
        let strip = self
            .sparse
            .decode(resp.body(), self.block_size)
            .map_err(ReplError::from)?
            .to_dense(self.block_size);
        Ok((strip, (req_len + resp.wire_len()) as u64))
    }

    /// Rebuilds every strip node `lost` holds from `k` surviving
    /// nodes' strips, shipping each reconstructed strip to the
    /// replacement as a coefficient-1 sparse delta over its zeroed
    /// disk.
    ///
    /// The replacement must be *fresh*: a wiped device behind a new
    /// applier on the same transport slot (rebuild-as-resync). Wire
    /// accounting is exact — per stripe, `k` strip reads plus one
    /// shipment, never `n` full images — and is returned along with
    /// the survivor-image denominator of the repair-bandwidth bound.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index; transport and
    /// decode failures abort the rebuild (`ec_decode_failures` counts
    /// reconstruction errors).
    pub fn rebuild(&mut self, lost: usize) -> Result<EcRebuildReport, ClusterError> {
        self.check_idx(lost)?;
        let started = self.probe.stamp();
        let n = self.placement.n();
        let k = self.placement.k;
        let mut report = EcRebuildReport {
            stripes: 0,
            wire_bytes: 0,
            survivor_image_bytes: 0,
        };
        // The replacement stays down until its last strip ships: a
        // half-rebuilt node's zeroed strips must not read as survivors.
        self.nodes[lost].link.abandon();
        for stripe in 0..self.stripes {
            let lost_role = self.placement.role_of(stripe, lost);
            let mut strips: Vec<Option<Vec<u8>>> = vec![None; n];
            let mut fetched = 0usize;
            for role in (0..n).filter(|&r| r != lost_role) {
                if fetched == k {
                    break;
                }
                let node = self.placement.node_for(stripe, role);
                // A down node's strip may be stale (it missed degraded
                // writes) — it must not contribute to reconstruction.
                if self.nodes[node].down {
                    continue;
                }
                let (strip, wire) = self.fetch_strip(node, stripe)?;
                report.wire_bytes += wire;
                report.survivor_image_bytes += strip.len() as u64;
                strips[role] = Some(strip);
                fetched += 1;
            }
            if fetched < k {
                self.probe.decode_failed();
                return Err(ReplError::Malformed(format!(
                    "ec rebuild: only {fetched} of {k} survivor strips reachable"
                ))
                .into());
            }
            if let Err(e) = self.codec.reconstruct(&mut strips) {
                self.probe.decode_failed();
                return Err(ReplError::Malformed(format!("ec reconstruct: {e}")).into());
            }
            let rebuilt = strips[lost_role]
                .take()
                .expect("reconstruct fills every missing strip");
            // Coefficient-1 delta over the replacement's zeroed disk:
            // the rebuilt image itself, minus its zero runs.
            let sparse = self.sparse.encode(&rebuilt);
            let fill = |out: &mut Vec<u8>| put_strip_delta(out, Lba(stripe), 1, sparse.as_bytes());
            let link = &mut self.nodes[lost].link;
            let (sealed_len, answer) =
                self.probe
                    .request(lost, link, self.ack_timeout, (None, ()), ACK, fill);
            answer?;
            report.wire_bytes += sealed_len as u64;
            report.stripes += 1;
        }
        self.nodes[lost].down = false;
        // Dirty stripes also cover writes other (still-down) nodes
        // missed; only a fully-online group has none left to remember.
        if !self.nodes.iter().any(|n| n.down) {
            self.dirty_stripes.clear();
        }
        self.probe
            .rebuilt(lost, report.stripes, report.wire_bytes, started);
        Ok(report)
    }

    /// Decodes the logical block at `lba` from strips fetched off the
    /// wire — the degraded-read / verification path. At most `m` nodes
    /// may be down; their strips are reconstructed.
    ///
    /// # Errors
    ///
    /// Transport failures, or too many down nodes for the code.
    pub fn decode_logical(&mut self, lba: Lba) -> Result<Vec<u8>, ClusterError> {
        let k = self.placement.k;
        let stripe = lba.index() / k as u64;
        let col = (lba.index() % k as u64) as usize;
        let n = self.placement.n();
        let mut strips: Vec<Option<Vec<u8>>> = vec![None; n];
        for (role, slot) in strips.iter_mut().enumerate() {
            let node = self.placement.node_for(stripe, role);
            if self.nodes[node].down {
                continue;
            }
            let (strip, _) = self.fetch_strip(node, stripe)?;
            *slot = Some(strip);
        }
        if strips[col].is_none() {
            if let Err(e) = self.codec.reconstruct(&mut strips) {
                self.probe.decode_failed();
                return Err(ReplError::Malformed(format!("ec decode: {e}")).into());
            }
        }
        Ok(strips[col].take().expect("column present or reconstructed"))
    }

    fn check_idx(&self, idx: usize) -> Result<(), ClusterError> {
        if idx < self.nodes.len() {
            Ok(())
        } else {
            Err(ClusterError::UnknownReplica(idx))
        }
    }
}

impl<D: BlockDevice, C: ErasureCodec> std::fmt::Debug for EcGroup<D, C> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcGroup")
            .field("codec", &self.codec.name())
            .field("k", &self.placement.k)
            .field("m", &self.placement.m)
            .field("stripes", &self.stripes)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use prins_block::{BlockSize, MemDevice};
    use prins_ec::ReedSolomon;
    use prins_net::SimNet;
    use prins_repl::{serve_sim, ReplicaApplier};
    use rand::{RngExt, SeedableRng};

    struct Harness {
        net: SimNet,
        group: EcGroup<MemDevice, ReedSolomon>,
        devices: Vec<Arc<MemDevice>>,
    }

    /// Adds one strip holder behind a simulated link of its own, served
    /// by the stock replica loop with an RS-codec applier — the same
    /// loop mirroring replicas run. A refused strip fails the group's
    /// own call, so the harness needs no check of its own.
    fn spawn_node(net: &SimNet, stripes: u64) -> (Box<dyn Transport>, Arc<MemDevice>) {
        let (primary_side, node_side, _ctl) = net.add_link("node", Duration::from_micros(200));
        let device = Arc::new(MemDevice::new(BlockSize::kb4(), stripes));
        let applier =
            ReplicaApplier::new(Arc::clone(&device)).with_codec(Box::new(ReedSolomon::k4m2()));
        serve_sim(net, &node_side, applier);
        (Box::new(primary_side), device)
    }

    fn harness(stripes: u64) -> Harness {
        let net = SimNet::new();
        let codec = ReedSolomon::k4m2();
        let (transports, devices) = (0..codec.total_strips())
            .map(|_| spawn_node(&net, stripes))
            .unzip();
        let logical = MemDevice::new(BlockSize::kb4(), stripes * codec.data_strips() as u64);
        let group = EcGroup::new(logical, codec, EcConfig::default(), transports);
        Harness {
            net,
            group,
            devices,
        }
    }

    /// Recomputes every node's expected strip from the primary's
    /// logical image and compares byte-for-byte.
    fn assert_strips_encode_logical(h: &Harness) {
        let k = h.group.placement().k;
        let bs = 4096;
        for stripe in 0..h.group.stripes() {
            let data: Vec<Vec<u8>> = (0..k)
                .map(|col| {
                    h.group
                        .device()
                        .read_block_vec(Lba(stripe * k as u64 + col as u64))
                        .unwrap()
                })
                .collect();
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = ReedSolomon::k4m2().encode(&refs).unwrap();
            for role in 0..h.group.placement().n() {
                // Systematic code: data roles hold the logical block
                // itself, parity roles hold the encoder's output.
                let want = if role < k {
                    &data[role]
                } else {
                    &parity[role - k]
                };
                let node = h.group.placement().node_for(stripe, role);
                let got = h.devices[node].read_block_vec(Lba(stripe)).unwrap();
                assert_eq!(&got, want, "stripe {stripe} role {role} node {node}");
                assert_eq!(got.len(), bs);
            }
        }
    }

    fn random_writes(h: &mut Harness, seed: u64, count: usize) {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let blocks = h.group.stripes() * h.group.placement().k as u64;
        for _ in 0..count {
            let lba = Lba(rng.random_range(0..blocks));
            let mut block = h.group.device().read_block_vec(lba).unwrap();
            let at = rng.random_range(0..block.len() - 128);
            let len = rng.random_range(16..128);
            for b in &mut block[at..at + len] {
                *b = rng.random();
            }
            h.group.write(lba, &block).unwrap();
        }
    }

    #[test]
    fn writes_keep_strips_equal_to_encode_of_logical() {
        let mut h = harness(4);
        random_writes(&mut h, 11, 60);
        assert_strips_encode_logical(&h);
    }

    #[test]
    fn small_writes_ship_sparse_deltas_not_full_strips() {
        let mut h = harness(4);
        let mut block = vec![0u8; 4096];
        block[100..164].fill(9);
        let outcome = h.group.write(Lba(0), &block).unwrap();
        // 1 data + 2 parity frames, each carrying ~64 payload bytes.
        assert_eq!(outcome.acked, 3);
        assert!(
            outcome.wire_bytes < 3 * 300,
            "64-byte change cost {} wire bytes",
            outcome.wire_bytes
        );
    }

    #[test]
    fn rebuild_recovers_a_lost_node_within_the_bandwidth_bound() {
        let mut h = harness(4);
        random_writes(&mut h, 12, 40);

        // Node 2 dies mid-workload; writes continue degraded.
        let lost = 2;
        h.group.mark_down(lost).unwrap();
        random_writes(&mut h, 120, 10);
        assert!(h.group.dirty_stripes() > 0);

        // A replacement arrives: wiped device, fresh applier, new link.
        let (t, d) = spawn_node(&h.net, h.group.stripes());
        h.group.replace_node(lost, t).unwrap();
        h.devices[lost] = d;

        let report = h.group.rebuild(lost).unwrap();
        assert_eq!(report.stripes, h.group.stripes());
        assert_eq!(h.group.dirty_stripes(), 0);
        assert!(
            report.wire_bytes as f64 <= 1.25 * report.survivor_image_bytes as f64,
            "rebuild moved {} wire bytes vs {} survivor image bytes",
            report.wire_bytes,
            report.survivor_image_bytes
        );
        // The replacement's strips — and everyone else's — again equal
        // the systematic encoding of the primary's logical image, and
        // post-rebuild writes flow to all n nodes.
        assert_strips_encode_logical(&h);
        random_writes(&mut h, 121, 10);
        assert_strips_encode_logical(&h);
    }

    /// Forwards to `inner`, except that its third send fails.
    struct FailsThirdSend {
        inner: Box<dyn Transport>,
        sends: std::sync::atomic::AtomicUsize,
    }

    impl Transport for FailsThirdSend {
        fn send(&self, msg: &[u8]) -> Result<(), prins_net::NetError> {
            let nth = self
                .sends
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            if nth == 2 {
                return Err(prins_net::NetError::Disconnected);
            }
            self.inner.send(msg)
        }

        fn recv(&self) -> Result<Vec<u8>, prins_net::NetError> {
            self.inner.recv()
        }

        fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, prins_net::NetError> {
            self.inner.recv_timeout(timeout)
        }

        fn meter(&self) -> &Arc<prins_net::TrafficMeter> {
            self.inner.meter()
        }
    }

    #[test]
    fn a_failed_rebuild_leaves_the_replacement_down() {
        let mut h = harness(4);
        random_writes(&mut h, 14, 40);
        h.group.mark_down(0).unwrap();
        // The replacement takes two stripes, then its link fails.
        let (t, d) = spawn_node(&h.net, h.group.stripes());
        let t = FailsThirdSend {
            inner: t,
            sends: Default::default(),
        };
        h.group.replace_node(0, Box::new(t)).unwrap();
        h.devices[0] = d;
        assert!(h.group.rebuild(0).is_err());

        // Its unrebuilt strips are zeros: read as a survivor's, they
        // would decode a wrong image with no error.
        let blocks = h.group.stripes() * h.group.placement().k as u64;
        for lba in 0..blocks {
            let want = h.group.device().read_block_vec(Lba(lba)).unwrap();
            if let Ok(got) = h.group.decode_logical(Lba(lba)) {
                assert!(got == want, "lba {lba} decoded a wrong image");
            }
        }
    }

    #[test]
    fn degraded_write_skips_down_nodes_and_marks_stripes_dirty() {
        let mut h = harness(2);
        h.group.mark_down(0).unwrap();
        let mut block = vec![0u8; 4096];
        block[0..32].fill(5);
        // Stripe 0: node 0 holds data column 0 — the write's own strip.
        let outcome = h.group.write(Lba(0), &block).unwrap();
        assert_eq!(outcome.skipped, 1);
        assert_eq!(outcome.acked, 2);
        assert_eq!(h.group.dirty_stripes(), 1);
    }

    #[test]
    fn decode_logical_survives_two_down_nodes() {
        let mut h = harness(2);
        random_writes(&mut h, 13, 20);
        h.group.mark_down(1).unwrap();
        h.group.mark_down(4).unwrap();
        let blocks = h.group.stripes() * h.group.placement().k as u64;
        for lba in 0..blocks {
            let want = h.group.device().read_block_vec(Lba(lba)).unwrap();
            let got = h.group.decode_logical(Lba(lba)).unwrap();
            assert_eq!(got, want, "lba {lba}");
        }
    }

    /// A group over scripted links: node 0 answers from `replies`, and
    /// sits at epoch 2 (its slot was replaced once).
    fn scripted_group(replies: Vec<Vec<u8>>) -> EcGroup<MemDevice, ReedSolomon> {
        let codec = ReedSolomon::k4m2();
        let transports = (0..codec.total_strips())
            .map(|_| Box::new(prins_net::SinkTransport::new()) as Box<dyn Transport>)
            .collect();
        let logical = MemDevice::new(BlockSize::kb4(), codec.data_strips() as u64);
        let mut group = EcGroup::new(logical, codec, EcConfig::default(), transports);
        let sink = prins_net::SinkTransport::new();
        sink.preload(replies);
        group.replace_node(0, Box::new(sink)).unwrap();
        group
    }

    /// What a real node answers to a sealed strip request for block 0
    /// holding `fill`, under `epoch`.
    fn strip_ack(epoch: u64, fill: u8) -> Vec<u8> {
        let device = MemDevice::new(BlockSize::kb4(), 1);
        device.write_block(Lba(0), &[fill; 4096]).unwrap();
        let mut request = Vec::new();
        Request::Strip(Lba(0)).put(&mut request);
        let (reply, rejected) =
            ReplicaApplier::new(&device).respond(&prins_repl::seal_frame(epoch, &request));
        assert!(rejected.is_none());
        reply
    }

    #[test]
    fn fetch_strip_drops_a_strip_ack_stranded_from_an_older_epoch() {
        // The epoch-1 answer was computed before the slot's epoch moved
        // to 2 — pre-rebuild state. It must not be taken for the strip.
        let mut group = scripted_group(vec![strip_ack(1, 0xaa), strip_ack(2, 0xbb)]);
        let (strip, wire) = group.fetch_strip(0, 0).unwrap();
        assert_eq!(strip, vec![0xbb; 4096]);
        assert!(wire > 0);
    }

    #[test]
    fn fetch_strip_classifies_refusals() {
        // The node's own media check failed (or the request arrived
        // damaged): a checksum error, not a malformed strip.
        let mut group = scripted_group(vec![prins_repl::encode_ack(prins_repl::NAK_CORRUPT, 0)]);
        assert!(matches!(
            group.fetch_strip(0, 0),
            Err(ClusterError::Repl(ReplError::ChecksumMismatch { .. }))
        ));
        let mut group = scripted_group(vec![prins_repl::encode_ack(prins_repl::NAK, 2)]);
        assert!(matches!(
            group.fetch_strip(0, 0),
            Err(ClusterError::Repl(ReplError::Nak { replica: 0 }))
        ));
    }

    #[test]
    fn a_failed_write_leaves_no_strip_ack_behind_for_the_next_one() {
        // Stripe 0 of k4m2: data column c on node c, parity on nodes 4
        // and 5. Node 0 never answers; the parity owners ACK the first
        // delta they get and refuse the second.
        let codec = ReedSolomon::k4m2();
        let transports = (0..codec.total_strips())
            .map(|node| {
                let sink = prins_net::SinkTransport::new();
                match node {
                    0 => {}
                    4 | 5 => sink.preload([
                        prins_repl::encode_ack(ACK, 1),
                        prins_repl::encode_ack(prins_repl::NAK, 1),
                    ]),
                    _ => sink.preload([prins_repl::encode_ack(ACK, 1)]),
                }
                Box::new(sink) as Box<dyn Transport>
            })
            .collect();
        let logical = MemDevice::new(BlockSize::kb4(), codec.data_strips() as u64);
        let mut group = EcGroup::new(logical, codec, EcConfig::default(), transports);

        // The data-strip owner is silent, so the write errs — but both
        // parity acks it drew are consumed, not left queued.
        assert!(matches!(
            group.write(Lba(0), &[1u8; 4096]),
            Err(ClusterError::Repl(ReplError::Net(_)))
        ));
        // Both parity owners refuse this one. Crediting it with the
        // first write's leftover ACKs would report three strips
        // acknowledged while the parity strips silently diverge.
        assert!(matches!(
            group.write(Lba(1), &[2u8; 4096]),
            Err(ClusterError::Repl(ReplError::Nak { replica: 4 }))
        ));
    }

    #[test]
    fn placement_rotates_and_inverts() {
        let p = EcPlacement { k: 4, m: 2 };
        for stripe in 0..12u64 {
            let mut seen = std::collections::HashSet::new();
            for role in 0..p.n() {
                let node = p.node_for(stripe, role);
                assert!(seen.insert(node), "stripe {stripe}: node collision");
                assert_eq!(p.role_of(stripe, node), role);
            }
        }
        // Rotation: consecutive stripes shift roles by one node.
        assert_eq!(p.node_for(0, 0), 0);
        assert_eq!(p.node_for(1, 0), 1);
        assert_eq!(p.node_for(6, 0), 0);
    }

    #[test]
    fn storage_overhead_is_half_of_three_way_mirroring() {
        let h = harness(4);
        let logical = h.group.logical_bytes() as f64;
        let physical = h.group.physical_bytes() as f64;
        assert!(physical / logical <= 1.6, "{}", physical / logical);
        assert!((physical / logical - 1.5).abs() < 1e-9);
        // A 3-way mirror of the same logical volume stores 3×.
        assert!(3.0 * logical > 1.8 * physical);
    }
}
