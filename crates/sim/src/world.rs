//! Simulation worlds: the *real* engine and cluster code wired to a
//! [`SimNet`], plus the invariant checkers run against them.
//!
//! A world owns the primary (a [`ClusterGroup`] or a stepped
//! [`PrinsEngine`]), one simulated link per replica with an
//! apply-and-acknowledge actor on the far side, and an oracle: the
//! per-LBA history of every content the primary ever gave a block.
//! Replicas may lag the primary, but at every instant each replica
//! block must hold *some* historical state — a stale-base XOR or a
//! double-applied parity produces a block that never existed on the
//! primary, which the oracle catches immediately.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_cluster::{
    ClusterConfig, ClusterError, ClusterGroup, EcConfig, EcGroup, EcRebuildReport, EcWriteOutcome,
    ReadOutcome, RendezvousPlacement, ReplicaState, ResyncStrategy, ShardedCluster, WriteOutcome,
};
use prins_core::{EngineBuilder, PrinsEngine};
use prins_ec::ReedSolomon;
use prins_net::{SimLinkCtl, SimNet, SimTransport, Transport};
use prins_obs::{EventKind, Registry, TraceConfig, TraceSink};
use prins_parity::ErasureCodec;
use prins_repl::{is_sealed, open_frame, AckPolicy, BatchFrame, Payload, ReplicaApplier, Request};

/// FNV-1a over a block image — the oracle's content fingerprint.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Per-LBA history of primary content hashes, oldest first.
#[derive(Debug, Default)]
pub struct History {
    states: BTreeMap<u64, Vec<u64>>,
}

impl History {
    fn seed(blocks: u64, block_size: usize) -> Self {
        let zero = content_hash(&vec![0u8; block_size]);
        Self {
            states: (0..blocks).map(|lba| (lba, vec![zero])).collect(),
        }
    }

    fn record(&mut self, lba: u64, hash: u64) {
        let chain = self.states.entry(lba).or_default();
        if chain.last() != Some(&hash) {
            chain.push(hash);
        }
    }

    fn contains(&self, lba: u64, hash: u64) -> bool {
        self.states
            .get(&lba)
            .is_some_and(|chain| chain.contains(&hash))
    }
}

/// Builds one replica behind a fresh [`SimNet`] link: a zeroed device
/// and an actor that applies every delivered frame and acknowledges it.
fn spawn_replica(
    net: &SimNet,
    idx: usize,
    block_size: BlockSize,
    blocks: u64,
    delay: Duration,
) -> (SimTransport, SimLinkCtl, Arc<MemDevice>, usize) {
    let (a, b, ctl) = net.add_link(&format!("replica{idx}"), delay);
    let device = Arc::new(MemDevice::new(block_size, blocks));
    let dev = Arc::clone(&device);
    let tr = b.clone();
    let replica_ep = b.endpoint_index();
    // The applier lives outside the actor closure: it must keep its
    // last-seen epoch and per-LBA checksum table across deliveries, or
    // every ack would regress to epoch 0 and verify-on-apply would
    // never see a stale base. Strict mode: a bit flip on the seal tag
    // itself must not let a damaged frame bypass verification.
    let mut applier = ReplicaApplier::new(dev).require_sealed(true);
    net.set_actor(
        &b,
        Box::new(move || {
            while let Ok(Some(frame)) = tr.try_recv() {
                let (ack, _) = applier.respond(&frame);
                let _ = tr.send(&ack);
            }
        }),
    );
    (a, ctl, device, replica_ep)
}

/// Extracts the LBAs a wire frame writes to (batch frames recurse).
/// Sealed envelopes are unwrapped first; a frame that fails its
/// integrity check — corrupted in flight — writes nothing, and digest
/// probes are reads, so both contribute no LBAs.
fn frame_lbas(bytes: &[u8]) -> Vec<u64> {
    if is_sealed(bytes) {
        return match open_frame(bytes) {
            Ok((_, inner)) => frame_lbas(inner),
            Err(_) => Vec::new(),
        };
    }
    if !matches!(Request::decode(bytes), Ok(None)) {
        return Vec::new();
    }
    if BatchFrame::is_batch(bytes) {
        match BatchFrame::from_bytes(bytes) {
            Ok(frame) => frame
                .payloads
                .iter()
                .flat_map(|inner| frame_lbas(inner))
                .collect(),
            Err(_) => Vec::new(),
        }
    } else {
        match Payload::from_bytes(bytes) {
            Ok(p) => vec![p.lba.index()],
            Err(_) => Vec::new(),
        }
    }
}

/// Per-LBA delivery-order + no-duplicate-delivery check over the
/// network's message log, for the given replica-side endpoints.
fn check_delivery_order(net: &SimNet, replica_eps: &[usize]) -> Result<(), String> {
    let msgs = net.message_log();
    let deliveries = net.delivery_log();
    for &ep in replica_eps {
        let mut delivered: BTreeSet<u64> = BTreeSet::new();
        let mut last_for_lba: BTreeMap<u64, u64> = BTreeMap::new();
        for &(_, id) in deliveries.iter().filter(|&&(t, _)| t == ep) {
            let msg = &msgs[id as usize];
            if !delivered.insert(id) {
                return Err(format!(
                    "duplicate delivery of data frame m{id} to endpoint {ep}"
                ));
            }
            for lba in frame_lbas(&msg.payload) {
                if let Some(&last) = last_for_lba.get(&lba) {
                    if id < last {
                        return Err(format!(
                            "per-LBA apply order violated at endpoint {ep}: \
                             m{id} (lba {lba}) delivered after m{last}"
                        ));
                    }
                }
                last_for_lba.insert(lba, id);
            }
        }
    }
    Ok(())
}

/// Checks every replica block holds some historical primary state.
fn check_historical(
    history: &History,
    blocks: u64,
    replica_devs: &[Arc<MemDevice>],
) -> Result<(), String> {
    for (idx, dev) in replica_devs.iter().enumerate() {
        for lba in 0..blocks {
            let content = dev
                .read_block_vec(Lba(lba))
                .map_err(|e| format!("replica {idx} read lba {lba}: {e}"))?;
            let hash = content_hash(&content);
            if !history.contains(lba, hash) {
                return Err(format!(
                    "replica {idx} lba {lba} holds a state the primary never had \
                     (hash {hash:#018x}) — stale-base XOR or double-applied parity"
                ));
            }
        }
    }
    Ok(())
}

fn check_identity(
    primary: &dyn BlockDevice,
    blocks: u64,
    replica_devs: &[Arc<MemDevice>],
) -> Result<(), String> {
    for (idx, dev) in replica_devs.iter().enumerate() {
        for lba in 0..blocks {
            let p = primary
                .read_block_vec(Lba(lba))
                .map_err(|e| format!("primary read lba {lba}: {e}"))?;
            let r = dev
                .read_block_vec(Lba(lba))
                .map_err(|e| format!("replica {idx} read lba {lba}: {e}"))?;
            if p != r {
                return Err(format!(
                    "replica {idx} lba {lba} differs from primary at quiescence"
                ));
            }
        }
    }
    Ok(())
}

/// Checks the recorded `state-change` event stream forms a legal
/// lifecycle walk per replica: each transition starts where the
/// previous one ended (every replica boots `online`), and every hop is
/// one the [`ReplicaState`] machine allows.
fn check_lifecycle_chain(registry: &Registry, replicas: usize) -> Result<(), String> {
    let mut position: Vec<&'static str> = vec!["online"; replicas];
    for event in registry.events().events() {
        let EventKind::StateChange { from, to } = event.kind else {
            continue;
        };
        let idx = event.replica as usize;
        if idx >= replicas {
            return Err(format!("state-change event for unknown replica {idx}"));
        }
        if position[idx] != from {
            return Err(format!(
                "replica {idx} lifecycle chain broken: event says {from}->{to} \
                 but the previous transition left it {}",
                position[idx]
            ));
        }
        let parse = |name: &str| match name {
            "online" => Some(ReplicaState::Online),
            "lagging" => Some(ReplicaState::Lagging),
            "offline" => Some(ReplicaState::Offline),
            "resyncing" => Some(ReplicaState::Resyncing),
            _ => None,
        };
        match (parse(from), parse(to)) {
            (Some(f), Some(t)) if f.can_transition(t) => {}
            _ => {
                return Err(format!(
                    "replica {idx} recorded machine-illegal transition {from}->{to}"
                ))
            }
        }
        position[idx] = to;
    }
    Ok(())
}

/// A [`ClusterGroup`] over simulated links: degraded writes, resync and
/// the full invariant set, all in virtual time.
pub struct ClusterWorld {
    net: SimNet,
    cluster: ClusterGroup<MemDevice>,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    ctls: Vec<SimLinkCtl>,
    primary_ends: Vec<SimTransport>,
    replica_devs: Vec<Arc<MemDevice>>,
    replica_eps: Vec<usize>,
    history: History,
    blocks: u64,
    block_size: usize,
}

impl ClusterWorld {
    /// A fresh world: zeroed primary and replicas, all links up, no
    /// faults scheduled.
    pub fn new(blocks: u64, replicas: usize, config: ClusterConfig, delay: Duration) -> Self {
        let net = SimNet::new();
        let block_size = BlockSize::kb4();
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut ctls = Vec::new();
        let mut primary_ends = Vec::new();
        let mut replica_devs = Vec::new();
        let mut replica_eps = Vec::new();
        for idx in 0..replicas {
            let (a, ctl, dev, ep) = spawn_replica(&net, idx, block_size, blocks, delay);
            primary_ends.push(a.clone());
            transports.push(Box::new(a));
            ctls.push(ctl);
            replica_devs.push(dev);
            replica_eps.push(ep);
        }
        let mut cluster = ClusterGroup::new(MemDevice::new(block_size, blocks), config, transports);
        let registry = Registry::new();
        cluster.attach_observer(Arc::clone(&registry), net.clock());
        let trace = Arc::new(TraceSink::new(TraceConfig::default()));
        cluster.attach_tracer(Arc::clone(&trace), 0, net.clock());
        Self {
            net,
            cluster,
            registry,
            trace,
            ctls,
            primary_ends,
            replica_devs,
            replica_eps,
            history: History::seed(blocks, block_size.bytes()),
            blocks,
            block_size: block_size.bytes(),
        }
    }

    /// The simulated network (trace, clock, message log).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The metrics registry the cluster records into (lifecycle
    /// transitions, resync batches, ack RTTs).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-write trace sink (every world traces; virtual clock
    /// reads are free, so event goldens are unaffected).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Fault controls for replica `idx`'s link.
    pub fn ctl(&self, idx: usize) -> &SimLinkCtl {
        &self.ctls[idx]
    }

    /// The cluster under test.
    pub fn cluster(&self) -> &ClusterGroup<MemDevice> {
        &self.cluster
    }

    /// Mutable access to the cluster under test.
    pub fn cluster_mut(&mut self) -> &mut ClusterGroup<MemDevice> {
        &mut self.cluster
    }

    /// Replica `idx`'s backing device.
    pub fn replica_dev(&self, idx: usize) -> &Arc<MemDevice> {
        &self.replica_devs[idx]
    }

    /// Number of blocks per device.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Writes `data` through the cluster, recording the new content in
    /// the oracle (also on quorum loss — the primary applied it).
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<WriteOutcome, ClusterError> {
        let res = self.cluster.write(Lba(lba), data);
        match &res {
            Ok(_) | Err(ClusterError::QuorumLost { .. }) => {
                self.history.record(lba, content_hash(data));
            }
            Err(_) => {}
        }
        res
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)` —
    /// a few header bytes over zeros, so PRINS parities stay small.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<WriteOutcome, ClusterError> {
        let mut data = vec![0u8; self.block_size];
        data[..8].copy_from_slice(&lba.to_le_bytes());
        data[8] = tag;
        data[9] = tag.wrapping_mul(31).wrapping_add(7);
        self.write(lba, &data)
    }

    /// Reads through the cluster (offloading to a replica when the
    /// freshness guard allows) and checks the read oracle: whatever
    /// source served it, the content must equal the primary's *current*
    /// block — an offloaded read may never observe pre-rejoin state.
    ///
    /// # Errors
    ///
    /// A stale or unhistorical read is an invariant violation (`Err`
    /// with the diagnostic); read transport failures degrade the
    /// replica and fall back, so they do not surface here.
    pub fn read_checked(&mut self, lba: u64) -> Result<ReadOutcome, String> {
        let out = self
            .cluster
            .read(Lba(lba))
            .map_err(|e| format!("read lba {lba}: {e}"))?;
        let want = self
            .cluster
            .device()
            .read_block_vec(Lba(lba))
            .map_err(|e| format!("primary read lba {lba}: {e}"))?;
        if out.data != want {
            return Err(format!(
                "offloaded read of lba {lba} from {:?} returned stale content \
                 (freshness oracle violated)",
                out.source
            ));
        }
        if !self.history.contains(lba, content_hash(&out.data)) {
            return Err(format!(
                "read of lba {lba} from {:?} returned a state the primary never had",
                out.source
            ));
        }
        Ok(out)
    }

    /// Heals every link, drains in-flight work, and resyncs every
    /// non-online replica with `strategy` until the cluster is fully
    /// online (bounded retries).
    ///
    /// # Errors
    ///
    /// If a replica cannot be brought back online.
    pub fn quiesce(&mut self, strategy: ResyncStrategy) -> Result<(), String> {
        for ctl in &self.ctls {
            ctl.clear_faults();
            if !ctl.is_up() {
                ctl.restore();
            }
        }
        self.net.run_until_idle();
        self.cluster.drain();
        for idx in 0..self.cluster.replica_count() {
            let mut attempts = 0;
            let mut last_err = String::new();
            while self.cluster.state(idx) != ReplicaState::Online {
                attempts += 1;
                if attempts > 8 {
                    return Err(format!(
                        "replica {idx} stuck {:?} after {attempts} rejoin attempts \
                         (last error: {last_err})",
                        self.cluster.state(idx)
                    ));
                }
                if matches!(
                    self.cluster.state(idx),
                    ReplicaState::Offline | ReplicaState::Lagging
                ) {
                    if let Err(e) = self.cluster.rejoin(idx, strategy) {
                        last_err = e.to_string();
                    }
                }
                if self.cluster.state(idx) == ReplicaState::Resyncing {
                    if let Err(e) = self.cluster.resync_to_completion(idx, 4) {
                        last_err = e.to_string();
                    }
                }
            }
        }
        self.cluster.drain();
        self.net.run_until_idle();
        Ok(())
    }

    /// Cheap mid-run invariant: every replica block is a historical
    /// primary state (corruption shows up here before quiescence).
    pub fn check_historical(&self) -> Result<(), String> {
        check_historical(&self.history, self.blocks, &self.replica_devs)
    }

    /// The full post-quiescence invariant set: every replica online
    /// with an empty dirty map, bit-identical to the primary, holding
    /// only historical states, with per-LBA delivery order intact and
    /// the cluster's byte accounting equal to the wire meters.
    pub fn check_invariants(&self) -> Result<(), String> {
        for idx in 0..self.cluster.replica_count() {
            let status = self.cluster.status(idx);
            if status.state != ReplicaState::Online {
                return Err(format!("replica {idx} not online: {:?}", status.state));
            }
            if status.dirty_blocks != 0 {
                return Err(format!(
                    "replica {idx} still dirty at quiescence: {} blocks",
                    status.dirty_blocks
                ));
            }
        }
        check_identity(self.cluster.device(), self.blocks, &self.replica_devs)?;
        self.check_historical()?;
        check_delivery_order(&self.net, &self.replica_eps)?;
        check_lifecycle_chain(&self.registry, self.cluster.replica_count())?;
        self.check_conservation()
    }

    /// Oracle for fault-free schedules: with no link faults scheduled,
    /// the registry must show a quiet run — no NAKs, no ack collection
    /// failures, no lifecycle transitions.
    pub fn check_quiet_run(&self) -> Result<(), String> {
        let ring = self.registry.events();
        for kind in ["nak", "ack-error", "send-error", "state-change"] {
            let n = ring.count(kind);
            if n > 0 {
                return Err(format!(
                    "fault-free schedule recorded {n} `{kind}` event(s)"
                ));
            }
        }
        Ok(())
    }

    /// Byte conservation: what the cluster booked as sent (foreground +
    /// resync + scrub probes + read requests) must equal what actually
    /// hit each wire.
    pub fn check_conservation(&self) -> Result<(), String> {
        for idx in 0..self.cluster.replica_count() {
            let status = self.cluster.status(idx);
            let sent = self.primary_ends[idx].meter().payload_bytes_sent();
            let booked = status.foreground_bytes
                + status.resync_bytes
                + status.scrub_bytes
                + status.read_bytes;
            if sent != booked {
                return Err(format!(
                    "replica {idx} byte accounting: wire saw {sent}, cluster booked {booked}"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ClusterWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClusterWorld")
            .field("blocks", &self.blocks)
            .field("replicas", &self.replica_devs.len())
            .field("net", &self.net)
            .finish()
    }
}

/// A [`ShardedCluster`] over simulated links: rendezvous placement,
/// offloaded reads, and live migration between groups, with the
/// volume-wide history oracle and per-group invariants.
///
/// Every group shares one [`SimNet`] and one registry (so a scenario's
/// event summary covers the whole volume). Devices are full-size
/// (identity addressing), the precondition migration needs.
pub struct ShardWorld {
    net: SimNet,
    sharded: ShardedCluster<MemDevice, RendezvousPlacement>,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    /// `ctls[g][r]` is group g, replica r's link.
    ctls: Vec<Vec<SimLinkCtl>>,
    primary_ends: Vec<Vec<SimTransport>>,
    replica_devs: Vec<Vec<Arc<MemDevice>>>,
    replica_eps: Vec<usize>,
    history: History,
    blocks: u64,
    block_size: usize,
}

impl ShardWorld {
    /// A fresh sharded world: `groups` replica groups of
    /// `replicas_per_group` each, all devices zeroed and full-size,
    /// equal-weight rendezvous placement.
    pub fn new(
        blocks: u64,
        groups: usize,
        replicas_per_group: usize,
        config: ClusterConfig,
        delay: Duration,
    ) -> Self {
        Self::with_slots(blocks, groups, replicas_per_group, config, delay, 1)
    }

    /// [`ShardWorld::new`] with `slot_blocks` contiguous LBAs hashed as
    /// one placement slot — slot-sized runs share an owner, giving
    /// migration scenarios contiguous ranges to move.
    pub fn with_slots(
        blocks: u64,
        groups: usize,
        replicas_per_group: usize,
        config: ClusterConfig,
        delay: Duration,
        slot_blocks: u64,
    ) -> Self {
        let net = SimNet::new();
        let block_size = BlockSize::kb4();
        let registry = Registry::new();
        let mut ctls = Vec::new();
        let mut primary_ends = Vec::new();
        let mut replica_devs = Vec::new();
        let mut replica_eps = Vec::new();
        let mut cluster_groups = Vec::new();
        for g in 0..groups {
            let mut transports: Vec<Box<dyn Transport>> = Vec::new();
            let mut group_ctls = Vec::new();
            let mut group_ends = Vec::new();
            let mut group_devs = Vec::new();
            for r in 0..replicas_per_group {
                let (a, ctl, dev, ep) =
                    spawn_replica(&net, g * replicas_per_group + r, block_size, blocks, delay);
                group_ends.push(a.clone());
                transports.push(Box::new(a));
                group_ctls.push(ctl);
                group_devs.push(dev);
                replica_eps.push(ep);
            }
            let mut group =
                ClusterGroup::new(MemDevice::new(block_size, blocks), config, transports);
            group.attach_observer(Arc::clone(&registry), net.clock());
            cluster_groups.push(group);
            ctls.push(group_ctls);
            primary_ends.push(group_ends);
            replica_devs.push(group_devs);
        }
        let placement = RendezvousPlacement::new(blocks, groups).with_slot_blocks(slot_blocks);
        let mut sharded = ShardedCluster::new(placement, cluster_groups);
        sharded.attach_observer(Arc::clone(&registry), net.clock());
        // One shard id per group plus the migration namespace.
        let trace = Arc::new(TraceSink::new(TraceConfig {
            shards: groups + 1,
            ..TraceConfig::default()
        }));
        sharded.attach_tracer(Arc::clone(&trace), net.clock());
        Self {
            net,
            sharded,
            registry,
            trace,
            ctls,
            primary_ends,
            replica_devs,
            replica_eps,
            history: History::seed(blocks, block_size.bytes()),
            blocks,
            block_size: block_size.bytes(),
        }
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The shared metrics registry (all groups plus migration events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The shared per-write trace sink (one shard id per group, one
    /// more for migration batches).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Fault controls for group `g`, replica `r`'s link.
    pub fn ctl(&self, g: usize, r: usize) -> &SimLinkCtl {
        &self.ctls[g][r]
    }

    /// The sharded cluster under test.
    pub fn sharded(&self) -> &ShardedCluster<MemDevice, RendezvousPlacement> {
        &self.sharded
    }

    /// Mutable access to the sharded cluster under test.
    pub fn sharded_mut(&mut self) -> &mut ShardedCluster<MemDevice, RendezvousPlacement> {
        &mut self.sharded
    }

    /// Number of blocks in the volume.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Writes `data` through the sharded cluster, recording the new
    /// content in the volume-wide oracle (also on quorum loss).
    pub fn write(&mut self, lba: u64, data: &[u8]) -> Result<WriteOutcome, ClusterError> {
        let res = self.sharded.write(Lba(lba), data);
        match &res {
            Ok(_) | Err(ClusterError::QuorumLost { .. }) => {
                self.history.record(lba, content_hash(data));
            }
            Err(_) => {}
        }
        res
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)`.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<WriteOutcome, ClusterError> {
        let mut data = vec![0u8; self.block_size];
        data[..8].copy_from_slice(&lba.to_le_bytes());
        data[8] = tag;
        data[9] = tag.wrapping_mul(31).wrapping_add(7);
        self.write(lba, &data)
    }

    /// Reads through the sharded cluster and checks the read oracle:
    /// the content must equal the owning group's *current* primary
    /// block, and be a state the volume actually had.
    ///
    /// # Errors
    ///
    /// A stale or unhistorical read is an invariant violation.
    pub fn read_checked(&mut self, lba: u64) -> Result<ReadOutcome, String> {
        let out = self
            .sharded
            .read(Lba(lba))
            .map_err(|e| format!("read lba {lba}: {e}"))?;
        let owner = self.sharded.owner(Lba(lba));
        let want = self
            .sharded
            .group(owner)
            .device()
            .read_block_vec(Lba(lba))
            .map_err(|e| format!("group {owner} primary read lba {lba}: {e}"))?;
        if out.data != want {
            return Err(format!(
                "offloaded read of lba {lba} (group {owner}, source {:?}) returned \
                 stale content (freshness oracle violated)",
                out.source
            ));
        }
        if !self.history.contains(lba, content_hash(&out.data)) {
            return Err(format!(
                "read of lba {lba} returned a state the volume never had"
            ));
        }
        Ok(out)
    }

    /// Heals every link, drains in-flight work, and resyncs every
    /// non-online replica of every group with `strategy`.
    ///
    /// # Errors
    ///
    /// If a replica cannot be brought back online.
    pub fn quiesce(&mut self, strategy: ResyncStrategy) -> Result<(), String> {
        for group_ctls in &self.ctls {
            for ctl in group_ctls {
                ctl.clear_faults();
                if !ctl.is_up() {
                    ctl.restore();
                }
            }
        }
        self.net.run_until_idle();
        for g in 0..self.sharded.group_count() {
            let cluster = self.sharded.group_mut(g);
            cluster.drain();
            for idx in 0..cluster.replica_count() {
                let mut attempts = 0;
                let mut last_err = String::new();
                while cluster.state(idx) != ReplicaState::Online {
                    attempts += 1;
                    if attempts > 8 {
                        return Err(format!(
                            "group {g} replica {idx} stuck {:?} after {attempts} rejoin \
                             attempts (last error: {last_err})",
                            cluster.state(idx)
                        ));
                    }
                    if matches!(
                        cluster.state(idx),
                        ReplicaState::Offline | ReplicaState::Lagging
                    ) {
                        if let Err(e) = cluster.rejoin(idx, strategy) {
                            last_err = e.to_string();
                        }
                    }
                    if cluster.state(idx) == ReplicaState::Resyncing {
                        if let Err(e) = cluster.resync_to_completion(idx, 4) {
                            last_err = e.to_string();
                        }
                    }
                }
            }
            self.sharded.group_mut(g).drain();
        }
        self.net.run_until_idle();
        Ok(())
    }

    /// Cheap mid-run invariant: every replica block of every group is a
    /// state the volume actually had.
    pub fn check_historical(&self) -> Result<(), String> {
        for (g, devs) in self.replica_devs.iter().enumerate() {
            check_historical(&self.history, self.blocks, devs)
                .map_err(|e| format!("group {g}: {e}"))?;
        }
        Ok(())
    }

    /// The full post-quiescence invariant set, per group: every replica
    /// online and clean, bit-identical to its group primary, holding
    /// only historical volume states, delivery order intact, byte
    /// accounting equal to the wire meters.
    ///
    /// (The lifecycle-chain check is per-[`ClusterWorld`]: with all
    /// groups sharing one registry, replica indices collide across
    /// groups, so it is not applicable here.)
    pub fn check_invariants(&self) -> Result<(), String> {
        for g in 0..self.sharded.group_count() {
            let cluster = self.sharded.group(g);
            for idx in 0..cluster.replica_count() {
                let status = cluster.status(idx);
                if status.state != ReplicaState::Online {
                    return Err(format!(
                        "group {g} replica {idx} not online: {:?}",
                        status.state
                    ));
                }
                if status.dirty_blocks != 0 {
                    return Err(format!(
                        "group {g} replica {idx} still dirty at quiescence: {} blocks",
                        status.dirty_blocks
                    ));
                }
            }
            check_identity(cluster.device(), self.blocks, &self.replica_devs[g])
                .map_err(|e| format!("group {g}: {e}"))?;
        }
        self.check_historical()?;
        check_delivery_order(&self.net, &self.replica_eps)?;
        self.check_conservation()
    }

    /// Byte conservation per group and replica: booked bytes
    /// (foreground + resync + scrub + reads) equal the wire meter.
    pub fn check_conservation(&self) -> Result<(), String> {
        for g in 0..self.sharded.group_count() {
            let cluster = self.sharded.group(g);
            for idx in 0..cluster.replica_count() {
                let status = cluster.status(idx);
                let sent = self.primary_ends[g][idx].meter().payload_bytes_sent();
                let booked = status.foreground_bytes
                    + status.resync_bytes
                    + status.scrub_bytes
                    + status.read_bytes;
                if sent != booked {
                    return Err(format!(
                        "group {g} replica {idx} byte accounting: wire saw {sent}, \
                         cluster booked {booked}"
                    ));
                }
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for ShardWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardWorld")
            .field("blocks", &self.blocks)
            .field("groups", &self.replica_devs.len())
            .field("net", &self.net)
            .finish()
    }
}

/// Configuration for [`EngineWorld`].
#[derive(Clone, Copy, Debug)]
pub struct EngineWorldConfig {
    /// Replica count.
    pub replicas: usize,
    /// Blocks per device.
    pub blocks: u64,
    /// Enable XOR-fold coalescing.
    pub coalesce: bool,
    /// Frames batched per wire message (1 = off).
    pub batch_frames: usize,
    /// In-flight frames allowed per lane.
    pub ack_window: usize,
    /// Symmetric per-frame link delay (virtual).
    pub delay: Duration,
    /// Drive replication with the adaptive policy engine (default
    /// config) instead of plain PRINS; `coalesce`/`batch_frames` above
    /// become the `Mixed`-phase baseline it retunes from.
    pub adaptive: bool,
}

impl Default for EngineWorldConfig {
    fn default() -> Self {
        Self {
            replicas: 2,
            blocks: 8,
            coalesce: false,
            batch_frames: 1,
            ack_window: 4,
            delay: Duration::from_micros(100),
            adaptive: false,
        }
    }
}

/// A stepped [`PrinsEngine`] over simulated links — the foreground
/// pipeline (coalescing, batching, windowed acks) in virtual time.
///
/// The engine has no resync layer, so a fault here is *permanent* lag:
/// the invariants are prefix-consistency (every replica block is a
/// historical state — behind is fine, garbage is not), per-LBA send
/// order, and byte conservation; bit-identity holds only after a flush
/// that saw no faults.
pub struct EngineWorld {
    net: SimNet,
    engine: PrinsEngine,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    primary: Arc<MemDevice>,
    ctls: Vec<SimLinkCtl>,
    primary_ends: Vec<SimTransport>,
    replica_devs: Vec<Arc<MemDevice>>,
    replica_eps: Vec<usize>,
    history: History,
    blocks: u64,
    block_size: usize,
}

impl EngineWorld {
    /// Builds the world: zeroed devices, manual stepping, virtual clock.
    pub fn new(cfg: EngineWorldConfig) -> Self {
        let net = SimNet::new();
        let block_size = BlockSize::kb4();
        let primary = Arc::new(MemDevice::new(block_size, cfg.blocks));
        let registry = Registry::new();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .manual_stepping(true)
            .observe(Arc::clone(&registry))
            .clock(net.clock())
            .flight_recorder(TraceConfig::default())
            .trace_sends(true)
            .coalesce(cfg.coalesce)
            .batch_frames(cfg.batch_frames)
            .ack_policy(AckPolicy::Window(cfg.ack_window))
            .ack_timeout(Duration::from_millis(50));
        if cfg.adaptive {
            builder = builder.adaptive(prins_policy::PolicyConfig::default());
        }
        let mut ctls = Vec::new();
        let mut primary_ends = Vec::new();
        let mut replica_devs = Vec::new();
        let mut replica_eps = Vec::new();
        for idx in 0..cfg.replicas {
            let (a, ctl, dev, ep) = spawn_replica(&net, idx, block_size, cfg.blocks, cfg.delay);
            primary_ends.push(a.clone());
            builder = builder.replica(Box::new(a));
            ctls.push(ctl);
            replica_devs.push(dev);
            replica_eps.push(ep);
        }
        let engine = builder.build();
        let trace = Arc::clone(engine.trace_sink().expect("flight recorder enabled above"));
        Self {
            net,
            engine,
            registry,
            trace,
            primary,
            ctls,
            primary_ends,
            replica_devs,
            replica_eps,
            history: History::seed(cfg.blocks, block_size.bytes()),
            blocks: cfg.blocks,
            block_size: block_size.bytes(),
        }
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// Fault controls for replica `idx`'s link.
    pub fn ctl(&self, idx: usize) -> &SimLinkCtl {
        &self.ctls[idx]
    }

    /// The engine under test.
    pub fn engine(&self) -> &PrinsEngine {
        &self.engine
    }

    /// The metrics registry the engine records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The engine's per-write trace sink (flight recorder).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)`.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<(), String> {
        let mut data = vec![0u8; self.block_size];
        data[..8].copy_from_slice(&lba.to_le_bytes());
        data[8] = tag;
        data[9] = tag.wrapping_mul(31).wrapping_add(7);
        self.engine
            .write_block(Lba(lba), &data)
            .map_err(|e| format!("write lba {lba}: {e}"))?;
        self.history.record(lba, content_hash(&data));
        Ok(())
    }

    /// Writes a dense block derived from `(lba, tag)`: every byte
    /// changes between tags and the xorshift stream defeats both the
    /// compressibility probe and LZSS — the churn shape, as opposed to
    /// [`write_tag`](Self::write_tag)'s small deltas.
    pub fn write_fill(&mut self, lba: u64, tag: u8) -> Result<(), String> {
        let mut data = vec![0u8; self.block_size];
        let mut state = ((lba << 8) | u64::from(tag)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for b in data.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        self.engine
            .write_block(Lba(lba), &data)
            .map_err(|e| format!("write lba {lba}: {e}"))?;
        self.history.record(lba, content_hash(&data));
        Ok(())
    }

    /// Drives one pipeline round (see [`PrinsEngine::step`]).
    pub fn step(&self) -> bool {
        self.engine.step()
    }

    /// Replication barrier; the error carries any lane failure since
    /// the last flush.
    pub fn flush(&self) -> Result<(), String> {
        self.engine.flush().map_err(|e| e.to_string())
    }

    /// Prefix-consistency: every replica block is a historical state.
    pub fn check_historical(&self) -> Result<(), String> {
        check_historical(&self.history, self.blocks, &self.replica_devs)
    }

    /// Bit-identity with the primary — call after a clean flush.
    pub fn check_identity(&self) -> Result<(), String> {
        check_identity(&*self.primary, self.blocks, &self.replica_devs)
    }

    /// Per-LBA ordering at two levels: the engine's own send logs
    /// (sequence numbers monotonic per LBA on every lane) and the
    /// network's delivery log (no duplicates, per-LBA delivery order).
    pub fn check_order(&self) -> Result<(), String> {
        for (lane, log) in self.engine.send_logs().iter().enumerate() {
            let mut last: BTreeMap<u64, u64> = BTreeMap::new();
            for &(lba, seq) in log {
                if let Some(&prev) = last.get(&lba.index()) {
                    if seq <= prev {
                        return Err(format!(
                            "lane {lane} sent lba {} seq {seq} after seq {prev}",
                            lba.index()
                        ));
                    }
                }
                last.insert(lba.index(), seq);
            }
        }
        check_delivery_order(&self.net, &self.replica_eps)
    }

    /// Cross-checks the registry against the engine's own counters —
    /// every accepted write was admitted or folded, every wire frame
    /// has a `send` event, every admitted write an encode sample, and
    /// the ack-RTT histogram holds one sample per ack event. Call at
    /// quiescence (after a flush).
    pub fn check_obs(&self) -> Result<(), String> {
        let ring = self.registry.events();
        let stats = self.engine.stats();
        let admits = ring.count("admit");
        let folded = ring.count("coalesce");
        if admits + folded != stats.writes {
            return Err(format!(
                "obs: {admits} admit + {folded} coalesce events for {} accepted writes",
                stats.writes
            ));
        }
        let sends: u64 = self.engine.lane_stats().iter().map(|l| l.sends).sum();
        if ring.count("send") != sends {
            return Err(format!(
                "obs: {} send events for {sends} lane transmissions",
                ring.count("send")
            ));
        }
        let snap = self.registry.snapshot();
        let acks = ring.count("ack-ok") + ring.count("nak") + ring.count("ack-error");
        let rtt = snap
            .histograms
            .get("stage_ack_rtt_nanos")
            .map_or(0, |h| h.count);
        if rtt != acks {
            return Err(format!("obs: {rtt} ack-RTT samples for {acks} ack events"));
        }
        let encode = snap
            .histograms
            .get("stage_encode_nanos")
            .map_or(0, |h| h.count);
        if encode != admits {
            return Err(format!(
                "obs: {encode} encode samples for {admits} admitted writes"
            ));
        }
        Ok(())
    }

    /// Byte conservation: the engine's `replicated_payload_bytes` must
    /// equal the sum of payload bytes that actually hit the wires.
    pub fn check_conservation(&self) -> Result<(), String> {
        let booked = self.engine.stats().replicated_payload_bytes;
        let sent: u64 = self
            .primary_ends
            .iter()
            .map(|t| t.meter().payload_bytes_sent())
            .sum();
        if booked != sent {
            return Err(format!(
                "engine booked {booked} replicated payload bytes, wires saw {sent}"
            ));
        }
        Ok(())
    }
}

impl std::fmt::Debug for EngineWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineWorld")
            .field("blocks", &self.blocks)
            .field("replicas", &self.replica_devs.len())
            .field("net", &self.net)
            .finish()
    }
}

/// Builds one strip-holding node behind a fresh [`SimNet`] link: a
/// zeroed `stripes`-block device and an actor running the stock apply
/// loop with a Reed–Solomon codec applier in strict sealed mode — the
/// same loop mirroring replicas run, answering strip deltas, strip
/// reads, and everything else.
fn spawn_strip_node(
    net: &SimNet,
    name: &str,
    stripes: u64,
    delay: Duration,
) -> (SimTransport, SimLinkCtl, Arc<MemDevice>) {
    let (a, b, ctl) = net.add_link(name, delay);
    let device = Arc::new(MemDevice::new(BlockSize::kb4(), stripes));
    let dev = Arc::clone(&device);
    let tr = b.clone();
    let mut applier = ReplicaApplier::new(dev)
        .with_codec(Box::new(ReedSolomon::k4m2()))
        .require_sealed(true);
    net.set_actor(
        &b,
        Box::new(move || {
            while let Ok(Some(frame)) = tr.try_recv() {
                let (ack, _) = applier.respond(&frame);
                let _ = tr.send(&ack);
            }
        }),
    );
    (a, ctl, device)
}

/// An [`EcGroup`] over simulated links: k-of-n strip placement, sparse
/// delta parity updates, node loss and repair-bandwidth-accounted
/// rebuild, all in virtual time. Fixed at the paper's `k = 4, m = 2`
/// Reed–Solomon geometry.
///
/// Two invariants anchor the EC scenarios:
///
/// 1. **Strips encode the logical image** — at full health, every
///    node's strip is byte-identical to the systematic encoding of the
///    primary's logical volume
///    ([`check_strips_encode_logical`](Self::check_strips_encode_logical)).
/// 2. **Decode matches the oracle** — every logical block decoded off
///    the wire (erased columns reconstructed) equals the primary image
///    and is a state the per-LBA history oracle has seen
///    ([`check_decode_matches_oracle`](Self::check_decode_matches_oracle)).
pub struct EcWorld {
    net: SimNet,
    group: EcGroup<MemDevice, ReedSolomon>,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    ctls: Vec<SimLinkCtl>,
    node_devs: Vec<Arc<MemDevice>>,
    history: History,
    blocks: u64,
    block_size: usize,
    delay: Duration,
    replacements: usize,
}

impl EcWorld {
    /// A fresh world: zeroed primary and strip nodes, all links up.
    pub fn new(stripes: u64, delay: Duration) -> Self {
        let net = SimNet::new();
        let codec = ReedSolomon::k4m2();
        let block_size = BlockSize::kb4();
        let mut transports: Vec<Box<dyn Transport>> = Vec::new();
        let mut ctls = Vec::new();
        let mut node_devs = Vec::new();
        for idx in 0..codec.total_strips() {
            let (a, ctl, dev) = spawn_strip_node(&net, &format!("node{idx}"), stripes, delay);
            transports.push(Box::new(a));
            ctls.push(ctl);
            node_devs.push(dev);
        }
        let blocks = stripes * codec.data_strips() as u64;
        let logical = MemDevice::new(block_size, blocks);
        let config = EcConfig {
            ack_timeout: Duration::from_millis(50),
        };
        let mut group = EcGroup::new(logical, codec, config, transports);
        let registry = Registry::new();
        group.attach_observer(Arc::clone(&registry), net.clock());
        let trace = Arc::new(TraceSink::new(TraceConfig::default()));
        group.attach_tracer(Arc::clone(&trace), 0, net.clock());
        Self {
            net,
            group,
            registry,
            trace,
            ctls,
            node_devs,
            history: History::seed(blocks, block_size.bytes()),
            blocks,
            block_size: block_size.bytes(),
            delay,
            replacements: 0,
        }
    }

    /// The simulated network (trace, clock, message log).
    pub fn net(&self) -> &SimNet {
        &self.net
    }

    /// The metrics registry the group records into (strip writes,
    /// parity-update and rebuild bytes, `ec-rebuild` events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// The per-write trace sink (strip fan-out traces).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.trace
    }

    /// The erasure-coded group under test.
    pub fn group(&self) -> &EcGroup<MemDevice, ReedSolomon> {
        &self.group
    }

    /// Mutable access to the group under test.
    pub fn group_mut(&mut self) -> &mut EcGroup<MemDevice, ReedSolomon> {
        &mut self.group
    }

    /// Logical blocks in the volume.
    pub fn blocks(&self) -> u64 {
        self.blocks
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)`
    /// through the group, recording the content in the oracle.
    ///
    /// # Errors
    ///
    /// Propagates the group's write error.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<EcWriteOutcome, ClusterError> {
        let mut data = vec![0u8; self.block_size];
        data[..8].copy_from_slice(&lba.to_le_bytes());
        data[8] = tag;
        data[9] = tag.wrapping_mul(31).wrapping_add(7);
        let res = self.group.write(Lba(lba), &data);
        if res.is_ok() {
            self.history.record(lba, content_hash(&data));
        }
        res
    }

    /// Kills node `idx`: the group stops routing strips to it and its
    /// link is severed — a write that tried anyway would time out.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index.
    pub fn fail_node(&mut self, idx: usize) -> Result<(), ClusterError> {
        self.group.mark_down(idx)?;
        self.ctls[idx].sever();
        Ok(())
    }

    /// Swaps a fresh node (wiped device, new applier, new link) into
    /// slot `idx` and rebuilds its strips from `k` survivors.
    ///
    /// # Errors
    ///
    /// The rebuild's transport or reconstruction failure.
    pub fn replace_and_rebuild(&mut self, idx: usize) -> Result<EcRebuildReport, String> {
        self.replacements += 1;
        let name = format!("node{idx}-r{}", self.replacements);
        let (a, ctl, dev) = spawn_strip_node(&self.net, &name, self.group.stripes(), self.delay);
        self.group
            .replace_node(idx, Box::new(a))
            .map_err(|e| format!("replace node {idx}: {e}"))?;
        self.ctls[idx] = ctl;
        self.node_devs[idx] = dev;
        self.group
            .rebuild(idx)
            .map_err(|e| format!("rebuild node {idx}: {e}"))
    }

    /// Byte-exact strip invariant: every node's strip equals the
    /// systematic encoding of the primary's logical image. Call at
    /// full health — a down node's strips are allowed to lag.
    ///
    /// # Errors
    ///
    /// The first diverging strip.
    pub fn check_strips_encode_logical(&self) -> Result<(), String> {
        let k = self.group.placement().k;
        let codec = ReedSolomon::k4m2();
        for stripe in 0..self.group.stripes() {
            let mut data = Vec::with_capacity(k);
            for col in 0..k {
                data.push(
                    self.group
                        .device()
                        .read_block_vec(Lba(stripe * k as u64 + col as u64))
                        .map_err(|e| format!("primary read stripe {stripe} col {col}: {e}"))?,
                );
            }
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = codec
                .encode(&refs)
                .map_err(|e| format!("encode stripe {stripe}: {e}"))?;
            for role in 0..self.group.placement().n() {
                let want = if role < k {
                    &data[role]
                } else {
                    &parity[role - k]
                };
                let node = self.group.placement().node_for(stripe, role);
                let got = self.node_devs[node]
                    .read_block_vec(Lba(stripe))
                    .map_err(|e| format!("node {node} read stripe {stripe}: {e}"))?;
                if &got != want {
                    return Err(format!(
                        "stripe {stripe} role {role}: node {node}'s strip diverges \
                         from encode(logical)"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Decodes every logical block off the wire (reconstructing erased
    /// columns) and checks it equals the primary image *and* is a
    /// state the history oracle has seen — the rebuild integrity
    /// proof. Works degraded: up to `m` nodes may be down.
    ///
    /// # Errors
    ///
    /// The first mismatching or unhistorical block.
    pub fn check_decode_matches_oracle(&mut self) -> Result<(), String> {
        for lba in 0..self.blocks {
            let want = self
                .group
                .device()
                .read_block_vec(Lba(lba))
                .map_err(|e| format!("primary read lba {lba}: {e}"))?;
            let got = self
                .group
                .decode_logical(Lba(lba))
                .map_err(|e| format!("decode lba {lba}: {e}"))?;
            if got != want {
                return Err(format!(
                    "lba {lba}: decoded block differs from the primary image"
                ));
            }
            let hash = content_hash(&got);
            if !self.history.contains(lba, hash) {
                return Err(format!(
                    "lba {lba}: decoded a state the primary never held (hash {hash:#018x})"
                ));
            }
        }
        Ok(())
    }
}

impl std::fmt::Debug for EcWorld {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EcWorld")
            .field("blocks", &self.blocks)
            .field("nodes", &self.node_devs.len())
            .field("net", &self.net)
            .finish()
    }
}
