//! Simulation worlds: the *real* engine and cluster code wired to a
//! [`SimNet`], plus the invariant checkers run against them.
//!
//! There is one world per system under test that exposes its own calls
//! — [`ShardWorld`] (the cluster plane: a [`ShardedCluster`] of one or
//! more [`ClusterGroup`]s; topology is the `groups` argument, not a
//! type), [`EngineWorld`] (a stepped [`PrinsEngine`]) and [`EcWorld`]
//! (an [`EcGroup`]). Everything they have in common lives once, in a
//! private bed each of them holds: the network, registry and trace
//! sink, one simulated link per replica with an apply-and-acknowledge
//! actor on the far side, and an oracle — the per-LBA history of every
//! content the primary ever gave a block. Replicas may lag the primary,
//! but at every instant each replica block must hold *some* historical
//! state — a stale-base XOR or a double-applied parity produces a block
//! that never existed on the primary, which the oracle catches
//! immediately.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
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

/// Every simulated device uses 4 KB blocks.
const BLOCK: BlockSize = BlockSize::kb4();

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
    fn seed(blocks: u64) -> Self {
        let zero = content_hash(&vec![0u8; BLOCK.bytes()]);
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

/// A deterministic sparse block derived from `(lba, tag)` — a few
/// header bytes over zeros, so PRINS parities stay small.
fn tagged_block(lba: u64, tag: u8) -> Vec<u8> {
    let mut data = vec![0u8; BLOCK.bytes()];
    data[..8].copy_from_slice(&lba.to_le_bytes());
    data[8] = tag;
    data[9] = tag.wrapping_mul(31).wrapping_add(7);
    data
}

/// One replica (or strip-holding node) behind its own [`SimNet`] link.
struct Node {
    ctl: SimLinkCtl,
    /// The primary's end of the link; its meter is the wire-byte truth.
    primary_end: SimTransport,
    dev: Arc<MemDevice>,
    /// The node's endpoint in the network's delivery log.
    ep: usize,
}

impl Node {
    /// Payload bytes the primary actually put on this node's wire.
    fn wire_bytes(&self) -> u64 {
        self.primary_end.meter().payload_bytes_sent()
    }
}

/// Builds one node behind a fresh link: a zeroed `blocks`-block device
/// and an actor that applies every delivered frame and acknowledges it
/// — the stock apply loop, with `codec` swapped in for nodes that hold
/// erasure-coded strips.
fn spawn_node(
    net: &SimNet,
    name: &str,
    blocks: u64,
    delay: Duration,
    codec: Option<Box<dyn ErasureCodec>>,
) -> Node {
    let (primary_end, b, ctl) = net.add_link(name, delay);
    let dev = Arc::new(MemDevice::new(BLOCK, blocks));
    let tr = b.clone();
    // The applier lives outside the actor closure: it must keep its
    // last-seen epoch and per-LBA checksum table across deliveries, or
    // every ack would regress to epoch 0 and verify-on-apply would
    // never see a stale base.
    let mut applier = ReplicaApplier::new(Arc::clone(&dev));
    if let Some(codec) = codec {
        applier = applier.with_codec(codec);
    }
    net.set_actor(
        &b,
        Box::new(move || {
            while let Ok(Some(frame)) = tr.try_recv() {
                let (ack, _) = applier.respond(&frame);
                let _ = tr.send(&ack);
            }
        }),
    );
    Node {
        ctl,
        primary_end,
        dev,
        ep: b.endpoint_index(),
    }
}

/// The primary-side transports of `nodes`, in order — what a system
/// under test is constructed over.
fn transports(nodes: &[Node]) -> Vec<Box<dyn Transport>> {
    nodes
        .iter()
        .map(|n| Box::new(n.primary_end.clone()) as Box<dyn Transport>)
        .collect()
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

/// What every world stands on: the simulated network, the registry and
/// trace sink the system under test records into, the node farm, and
/// the history oracle with the checks that need nothing else.
struct Bed {
    net: SimNet,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    nodes: Vec<Node>,
    history: History,
    /// Logical blocks in the volume (the oracle's address space).
    blocks: u64,
}

impl Bed {
    fn new(
        net: SimNet,
        registry: Arc<Registry>,
        trace: Arc<TraceSink>,
        nodes: Vec<Node>,
        blocks: u64,
    ) -> Self {
        Self {
            net,
            registry,
            trace,
            nodes,
            history: History::seed(blocks),
            blocks,
        }
    }

    /// Records `data` as a state the primary gave `lba`.
    fn record(&mut self, lba: u64, data: &[u8]) {
        self.history.record(lba, content_hash(data));
    }

    /// Clears every scheduled fault and brings every link back up.
    fn heal_links(&self) {
        for node in &self.nodes {
            node.ctl.clear_faults();
            if !node.ctl.is_up() {
                node.ctl.restore();
            }
        }
    }

    /// Checks every replica block holds some historical primary state.
    fn check_historical(&self) -> Result<(), String> {
        for (idx, node) in self.nodes.iter().enumerate() {
            for lba in 0..self.blocks {
                let content = node
                    .dev
                    .read_block_vec(Lba(lba))
                    .map_err(|e| format!("replica {idx} read lba {lba}: {e}"))?;
                let hash = content_hash(&content);
                if !self.history.contains(lba, hash) {
                    return Err(format!(
                        "replica {idx} lba {lba} holds a state the primary never had \
                         (hash {hash:#018x}) — stale-base XOR or double-applied parity"
                    ));
                }
            }
        }
        Ok(())
    }

    /// Checks the replicas in `nodes` are bit-identical to `primary`.
    fn check_identity(&self, primary: &dyn BlockDevice, nodes: Range<usize>) -> Result<(), String> {
        for idx in nodes {
            for lba in 0..self.blocks {
                let p = primary
                    .read_block_vec(Lba(lba))
                    .map_err(|e| format!("primary read lba {lba}: {e}"))?;
                let r = self.nodes[idx]
                    .dev
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

    /// Per-LBA delivery-order + no-duplicate-delivery check over the
    /// network's message log, for every node's endpoint.
    fn check_delivery_order(&self) -> Result<(), String> {
        let msgs = self.net.message_log();
        let deliveries = self.net.delivery_log();
        for ep in self.nodes.iter().map(|n| n.ep) {
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
}

/// Checks the recorded `state-change` event stream forms a legal
/// lifecycle walk per replica: each transition starts where the
/// previous one ended (every replica boots `online`), and every hop is
/// one the [`ReplicaState`] machine allows.
fn check_lifecycle_chain(registry: &Registry, replicas: usize) -> Result<(), String> {
    use ReplicaState::{Lagging, Offline, Online, Resyncing};
    const STATES: [ReplicaState; 4] = [Online, Lagging, Offline, Resyncing];
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
        let parse = |name: &str| STATES.into_iter().find(|s| s.name() == name);
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

/// The cluster plane over simulated links: a [`ShardedCluster`] of
/// `groups` replica groups behind a rendezvous placement — degraded
/// writes, resync, offloaded reads and live migration between groups,
/// with the volume-wide history oracle and per-group invariants, all in
/// virtual time.
///
/// A plain replicated cluster is the `groups = 1` case: the placement
/// routes every LBA to group 0 at the same LBA, so the world *is* that
/// [`ClusterGroup`] (reach it with [`group`](Self::group) /
/// [`group_mut`](Self::group_mut)).
///
/// Every group shares one [`SimNet`] and one registry (so a scenario's
/// event summary covers the whole volume); every device spans the whole
/// volume.
pub struct ShardWorld {
    sharded: ShardedCluster<MemDevice>,
    replicas_per_group: usize,
    bed: Bed,
}

impl ShardWorld {
    /// A fresh world: `groups` replica groups of `replicas_per_group`
    /// each, all devices zeroed, all links up, no faults scheduled,
    /// equal-weight rendezvous placement hashing `slot_blocks`
    /// contiguous LBAs as one slot — slot-sized runs share an owner,
    /// giving migration scenarios contiguous ranges to move (with one
    /// group the slot size is immaterial: group 0 owns everything).
    pub fn new(
        blocks: u64,
        groups: usize,
        replicas_per_group: usize,
        config: ClusterConfig,
        delay: Duration,
        slot_blocks: u64,
    ) -> Self {
        let net = SimNet::new();
        let registry = Registry::new();
        let nodes: Vec<Node> = (0..groups * replicas_per_group)
            .map(|idx| spawn_node(&net, &format!("replica{idx}"), blocks, delay, None))
            .collect();
        let cluster_groups = nodes
            .chunks(replicas_per_group)
            .map(|farm| {
                let mut group =
                    ClusterGroup::new(MemDevice::new(BLOCK, blocks), config, transports(farm));
                group.attach_observer(Arc::clone(&registry), net.clock());
                group
            })
            .collect();
        let placement = RendezvousPlacement::new(blocks, groups).with_slot_blocks(slot_blocks);
        let mut sharded = ShardedCluster::new(placement, cluster_groups);
        sharded.attach_observer(Arc::clone(&registry), net.clock());
        // One shard id per group, plus the migration namespace when
        // there is a second group to migrate to.
        let trace = Arc::new(TraceSink::new(TraceConfig {
            shards: groups + usize::from(groups > 1),
            ..TraceConfig::default()
        }));
        sharded.attach_tracer(Arc::clone(&trace), net.clock());
        Self {
            sharded,
            replicas_per_group,
            bed: Bed::new(net, registry, trace, nodes, blocks),
        }
    }

    /// The simulated network (trace, clock, message log).
    pub fn net(&self) -> &SimNet {
        &self.bed.net
    }

    /// The shared metrics registry (every group's lifecycle
    /// transitions, resync batches and ack RTTs, plus migration events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.bed.registry
    }

    /// The shared per-write trace sink (one shard id per group, one
    /// more for migration batches; virtual clock reads are free, so
    /// event goldens are unaffected).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.bed.trace
    }

    fn node(&self, g: usize, r: usize) -> &Node {
        assert!(r < self.replicas_per_group, "replica {r} out of range");
        &self.bed.nodes[g * self.replicas_per_group + r]
    }

    /// Fault controls for group `g`, replica `r`'s link.
    pub fn ctl(&self, g: usize, r: usize) -> &SimLinkCtl {
        &self.node(g, r).ctl
    }

    /// Group `g`, replica `r`'s backing device.
    pub fn replica_dev(&self, g: usize, r: usize) -> &Arc<MemDevice> {
        &self.node(g, r).dev
    }

    /// The sharded cluster under test.
    pub fn sharded(&self) -> &ShardedCluster<MemDevice> {
        &self.sharded
    }

    /// Mutable access to the sharded cluster under test.
    pub fn sharded_mut(&mut self) -> &mut ShardedCluster<MemDevice> {
        &mut self.sharded
    }

    /// Replica group `g` (group 0 is *the* cluster of a one-group world).
    pub fn group(&self, g: usize) -> &ClusterGroup<MemDevice> {
        self.sharded.group(g)
    }

    /// Mutable access to replica group `g`.
    pub fn group_mut(&mut self, g: usize) -> &mut ClusterGroup<MemDevice> {
        self.sharded.group_mut(g)
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)` —
    /// a few header bytes over zeros, so PRINS parities stay small —
    /// through the cluster, recording the new content in the
    /// volume-wide oracle (also on quorum loss — the primary applied
    /// it).
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<WriteOutcome, ClusterError> {
        let data = tagged_block(lba, tag);
        let res = self.sharded.write(Lba(lba), &data);
        if matches!(res, Ok(_) | Err(ClusterError::QuorumLost { .. })) {
            self.bed.record(lba, &data);
        }
        res
    }

    /// Reads through the cluster (offloading to a replica when the
    /// freshness guard allows) and checks the read oracle: whatever
    /// source served it, the content must equal the owning group's
    /// *current* primary block — an offloaded read may never observe
    /// pre-rejoin state — and be a state the volume actually had.
    ///
    /// # Errors
    ///
    /// A stale or unhistorical read is an invariant violation (`Err`
    /// with the diagnostic); read transport failures degrade the
    /// replica and fall back, so they do not surface here.
    pub fn read_checked(&mut self, lba: u64) -> Result<ReadOutcome, String> {
        let out = self
            .sharded
            .read(Lba(lba))
            .map_err(|e| format!("read lba {lba}: {e}"))?;
        let owner = self.sharded.owner(Lba(lba));
        let want = self
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
        if !self.bed.history.contains(lba, content_hash(&out.data)) {
            return Err(format!(
                "read of lba {lba} from {:?} returned a state the volume never had",
                out.source
            ));
        }
        Ok(out)
    }

    /// Heals every link, drains in-flight work, and resyncs every
    /// non-online replica of every group with `strategy` until the
    /// cluster is fully online (bounded retries).
    ///
    /// # Errors
    ///
    /// If a replica cannot be brought back online.
    pub fn quiesce(&mut self, strategy: ResyncStrategy) -> Result<(), String> {
        self.bed.heal_links();
        self.bed.net.run_until_idle();
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
            cluster.drain();
        }
        self.bed.net.run_until_idle();
        Ok(())
    }

    /// Cheap mid-run invariant: every replica block of every group is a
    /// state the volume actually had (corruption shows up here before
    /// quiescence).
    pub fn check_historical(&self) -> Result<(), String> {
        self.bed.check_historical()
    }

    /// The full post-quiescence invariant set, per group: every replica
    /// online with an empty dirty map, bit-identical to its group
    /// primary, holding only historical volume states, per-LBA delivery
    /// order intact, and the cluster's byte accounting equal to the
    /// wire meters.
    ///
    /// A one-group world additionally checks the recorded lifecycle
    /// chain; with several groups sharing one registry, replica indices
    /// collide across groups, so it is not applicable there.
    pub fn check_invariants(&self) -> Result<(), String> {
        let per_group = self.replicas_per_group;
        for g in 0..self.sharded.group_count() {
            let cluster = self.group(g);
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
            self.bed
                .check_identity(cluster.device(), g * per_group..(g + 1) * per_group)
                .map_err(|e| format!("group {g}: {e}"))?;
        }
        self.check_historical()?;
        self.bed.check_delivery_order()?;
        if self.sharded.group_count() == 1 {
            check_lifecycle_chain(&self.bed.registry, per_group)?;
        }
        self.check_conservation()
    }

    /// Oracle for fault-free schedules: with no link faults scheduled,
    /// the registry must show a quiet run — no NAKs, no ack collection
    /// failures, no lifecycle transitions.
    pub fn check_quiet_run(&self) -> Result<(), String> {
        let ring = self.bed.registry.events();
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

    /// Byte conservation per group and replica: what the cluster booked
    /// as sent (foreground + resync + scrub probes + read requests)
    /// must equal what actually hit each wire.
    pub fn check_conservation(&self) -> Result<(), String> {
        for g in 0..self.sharded.group_count() {
            let cluster = self.group(g);
            for idx in 0..cluster.replica_count() {
                let status = cluster.status(idx);
                let sent = self.node(g, idx).wire_bytes();
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
    engine: PrinsEngine,
    primary: Arc<MemDevice>,
    bed: Bed,
}

impl EngineWorld {
    /// Builds the world: zeroed devices, manual stepping, virtual clock.
    pub fn new(cfg: EngineWorldConfig) -> Self {
        let net = SimNet::new();
        let primary = Arc::new(MemDevice::new(BLOCK, cfg.blocks));
        let registry = Registry::new();
        let nodes: Vec<Node> = (0..cfg.replicas)
            .map(|idx| spawn_node(&net, &format!("replica{idx}"), cfg.blocks, cfg.delay, None))
            .collect();
        let mut builder = EngineBuilder::new(Arc::clone(&primary) as Arc<dyn BlockDevice>)
            .manual_stepping(true)
            .observe(Arc::clone(&registry))
            .clock(net.clock())
            .flight_recorder(TraceConfig::default())
            .coalesce(cfg.coalesce)
            .batch_frames(cfg.batch_frames)
            .ack_policy(AckPolicy::Window(cfg.ack_window))
            .ack_timeout(Duration::from_millis(50));
        if cfg.adaptive {
            builder = builder.adaptive(prins_policy::PolicyConfig::default());
        }
        for transport in transports(&nodes) {
            builder = builder.replica(transport);
        }
        let engine = builder.build();
        let trace = Arc::clone(engine.trace_sink().expect("flight recorder enabled above"));
        Self {
            engine,
            primary,
            bed: Bed::new(net, registry, trace, nodes, cfg.blocks),
        }
    }

    /// The simulated network.
    pub fn net(&self) -> &SimNet {
        &self.bed.net
    }

    /// Fault controls for replica `idx`'s link.
    pub fn ctl(&self, idx: usize) -> &SimLinkCtl {
        &self.bed.nodes[idx].ctl
    }

    /// The engine under test.
    pub fn engine(&self) -> &PrinsEngine {
        &self.engine
    }

    /// The metrics registry the engine records into.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.bed.registry
    }

    /// The engine's per-write trace sink (flight recorder).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.bed.trace
    }

    fn write(&mut self, lba: u64, data: &[u8]) -> Result<(), String> {
        self.engine
            .write_block(Lba(lba), data)
            .map_err(|e| format!("write lba {lba}: {e}"))?;
        self.bed.record(lba, data);
        Ok(())
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)`.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<(), String> {
        self.write(lba, &tagged_block(lba, tag))
    }

    /// Writes a dense block derived from `(lba, tag)`: every byte
    /// changes between tags and the xorshift stream defeats both the
    /// compressibility probe and LZSS — the churn shape, as opposed to
    /// [`write_tag`](Self::write_tag)'s small deltas.
    pub fn write_fill(&mut self, lba: u64, tag: u8) -> Result<(), String> {
        let mut data = vec![0u8; BLOCK.bytes()];
        let mut state = ((lba << 8) | u64::from(tag)).wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        for b in data.iter_mut() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            *b = (state >> 32) as u8;
        }
        self.write(lba, &data)
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
        self.bed.check_historical()
    }

    /// Bit-identity with the primary — call after a clean flush.
    pub fn check_identity(&self) -> Result<(), String> {
        self.bed
            .check_identity(&*self.primary, 0..self.bed.nodes.len())
    }

    /// Per-LBA ordering at two levels: the engine's own send order
    /// (each lane's frames tile the sequence space — see
    /// [`EventRing::lane_send_order`](prins_obs::EventRing::lane_send_order)
    /// — and sequence numbers are monotonic per LBA on every lane) and
    /// the network's delivery log (no duplicates, per-LBA delivery
    /// order).
    pub fn check_order(&self) -> Result<(), String> {
        for lane in 0..self.bed.nodes.len() {
            let mut last: BTreeMap<u64, u64> = BTreeMap::new();
            for (seq, lba) in self.bed.registry.events().lane_send_order(lane)? {
                if let Some(prev) = last.insert(lba, seq) {
                    if seq <= prev {
                        return Err(format!(
                            "lane {lane} sent lba {lba} seq {seq} after seq {prev}"
                        ));
                    }
                }
            }
        }
        self.bed.check_delivery_order()
    }

    /// Cross-checks the registry against the engine's own counters —
    /// every accepted write was admitted or folded, every wire frame
    /// has a `send` event, every admitted write an encode sample, and
    /// the ack-RTT histogram holds one sample per ack event. Call at
    /// quiescence (after a flush).
    pub fn check_obs(&self) -> Result<(), String> {
        let ring = self.bed.registry.events();
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
        let snap = self.bed.registry.snapshot();
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
        let sent: u64 = self.bed.nodes.iter().map(Node::wire_bytes).sum();
        if booked != sent {
            return Err(format!(
                "engine booked {booked} replicated payload bytes, wires saw {sent}"
            ));
        }
        Ok(())
    }
}

/// An [`EcGroup`] over simulated links: k-of-n strip placement, sparse
/// delta parity updates, node loss and repair-bandwidth-accounted
/// rebuild, all in virtual time. Fixed at the paper's `k = 4, m = 2`
/// Reed–Solomon geometry; every node runs the stock apply loop with
/// that codec, answering strip deltas, strip reads, and everything
/// else.
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
    group: EcGroup<MemDevice, ReedSolomon>,
    delay: Duration,
    replacements: usize,
    bed: Bed,
}

/// The codec a strip-holding node's applier runs.
fn strip_codec() -> Option<Box<dyn ErasureCodec>> {
    Some(Box::new(ReedSolomon::k4m2()))
}

impl EcWorld {
    /// A fresh world: zeroed primary and strip nodes, all links up.
    pub fn new(stripes: u64, delay: Duration) -> Self {
        let net = SimNet::new();
        let codec = ReedSolomon::k4m2();
        let nodes: Vec<Node> = (0..codec.total_strips())
            .map(|idx| spawn_node(&net, &format!("node{idx}"), stripes, delay, strip_codec()))
            .collect();
        let blocks = stripes * codec.data_strips() as u64;
        let config = EcConfig {
            ack_timeout: Duration::from_millis(50),
        };
        let logical = MemDevice::new(BLOCK, blocks);
        let mut group = EcGroup::new(logical, codec, config, transports(&nodes));
        let registry = Registry::new();
        group.attach_observer(Arc::clone(&registry), net.clock());
        let trace = Arc::new(TraceSink::new(TraceConfig::default()));
        group.attach_tracer(Arc::clone(&trace), 0, net.clock());
        Self {
            group,
            delay,
            replacements: 0,
            bed: Bed::new(net, registry, trace, nodes, blocks),
        }
    }

    /// The simulated network (trace, clock, message log).
    pub fn net(&self) -> &SimNet {
        &self.bed.net
    }

    /// The metrics registry the group records into (strip writes,
    /// parity-update and rebuild bytes, `ec-rebuild` events).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.bed.registry
    }

    /// The per-write trace sink (strip fan-out traces).
    pub fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.bed.trace
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
        self.bed.blocks
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)`
    /// through the group, recording the content in the oracle.
    ///
    /// # Errors
    ///
    /// Propagates the group's write error.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<EcWriteOutcome, ClusterError> {
        let data = tagged_block(lba, tag);
        let res = self.group.write(Lba(lba), &data);
        if res.is_ok() {
            self.bed.record(lba, &data);
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
        self.bed.nodes[idx].ctl.sever();
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
        let stripes = self.group.stripes();
        let node = spawn_node(&self.bed.net, &name, stripes, self.delay, strip_codec());
        self.group
            .replace_node(idx, Box::new(node.primary_end.clone()))
            .map_err(|e| format!("replace node {idx}: {e}"))?;
        self.bed.nodes[idx] = node;
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
                let got = self.bed.nodes[node]
                    .dev
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
        for lba in 0..self.bed.blocks {
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
            if !self.bed.history.contains(lba, hash) {
                return Err(format!(
                    "lba {lba}: decoded a state the primary never held (hash {hash:#018x})"
                ));
            }
        }
        Ok(())
    }
}
