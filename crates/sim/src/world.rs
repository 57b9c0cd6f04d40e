//! The simulation world: the *real* engine and cluster code wired to a
//! [`SimNet`], plus the invariant checkers run against it.
//!
//! Topology is data, not a type. One [`World`] is built from a
//! [`Topology`] value — the cluster plane (a [`ShardedCluster`] of one
//! or more [`ClusterGroup`]s), a stepped [`PrinsEngine`], or an
//! [`EcGroup`] — and exposes one set of verbs over all three. Every
//! topology stands on the same private bed: the network, registry and
//! trace sink, one simulated link per replica (or strip node) with an
//! apply-and-acknowledge actor on the far side, and an oracle — the
//! per-LBA history of every content the primary ever gave a block.
//! Replicas may lag the primary, but at every instant each replica
//! block must hold *some* historical state — a stale-base XOR or a
//! double-applied parity produces a block that never existed on the
//! primary, which the oracle catches immediately.
//!
//! The calls only one topology has (`rejoin`, `migrate_start`,
//! `engine().stats()`, [`World::replace_and_rebuild`], …) stay on its
//! own system, reached through [`World::group_mut`],
//! [`World::sharded_mut`], [`World::engine`] or [`World::ec`]; those
//! accessors panic on a world of another topology.

use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

use prins_block::{BlockDevice, BlockSize, Lba, MemDevice};
use prins_cluster::{
    ClusterConfig, ClusterError, ClusterGroup, EcConfig, EcGroup, EcRebuildReport,
    RendezvousPlacement, ReplicaState, ShardedCluster,
};
use prins_core::{EngineBuilder, PrinsEngine};
use prins_ec::ReedSolomon;
use prins_net::{SimLinkCtl, SimNet, SimTransport, Transport};
use prins_obs::{EventKind, Registry, TraceConfig, TraceSink};
use prins_parity::ErasureCodec;
use prins_repl::{
    is_sealed, open_frame, serve_sim, AckPolicy, BatchFrame, Payload, ReplicaApplier, Request,
};

/// Every simulated device uses 4 KB blocks.
const BLOCK: BlockSize = BlockSize::kb4();
/// Per-frame link delay of the cluster and EC topologies (virtual).
const LINK_DELAY: Duration = Duration::from_micros(200);
/// Per-frame link delay of the engine topology; its goldens were
/// recorded at it.
const ENGINE_LINK_DELAY: Duration = Duration::from_micros(100);
/// How long the engine and the EC group wait for each acknowledgement
/// (virtual milliseconds: generous against µs links, free against the
/// wall clock).
const ACK_TIMEOUT: Duration = Duration::from_millis(50);
/// Blocks per device in the engine topology.
const ENGINE_BLOCKS: u64 = 8;
/// Stripes in the EC topology (its volume is `4 × k` logical blocks).
const EC_STRIPES: u64 = 4;

/// FNV-1a over a block image — the oracle's content fingerprint.
pub(crate) fn content_hash(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
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
/// served by the stock apply loop ([`serve_sim`]), with the EC
/// topology's codec swapped in for nodes that hold `strips`.
fn spawn_node(net: &SimNet, name: &str, blocks: u64, delay: Duration, strips: bool) -> Node {
    let (primary_end, b, ctl) = net.add_link(name, delay);
    let dev = Arc::new(MemDevice::new(BLOCK, blocks));
    let mut applier = ReplicaApplier::new(Arc::clone(&dev));
    if strips {
        applier = applier.with_codec(Box::new(ReedSolomon::k4m2()));
    }
    serve_sim(net, &b, applier);
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
        open_frame(bytes).map_or(Vec::new(), |(_, inner)| frame_lbas(inner))
    } else if !matches!(Request::decode(bytes), Ok(None)) {
        Vec::new()
    } else if BatchFrame::is_batch(bytes) {
        BatchFrame::from_bytes(bytes).map_or(Vec::new(), |frame| {
            frame.payloads.iter().flat_map(|p| frame_lbas(p)).collect()
        })
    } else {
        Payload::from_bytes(bytes).map_or(Vec::new(), |p| vec![p.lba.index()])
    }
}

/// What every topology stands on: the simulated network, the registry
/// and trace sink the system under test records into, the node farm,
/// and the history oracle with the checks that need nothing else.
struct Bed {
    net: SimNet,
    registry: Arc<Registry>,
    trace: Arc<TraceSink>,
    nodes: Vec<Node>,
    /// The oracle: `(lba, content_hash)` of every state the primary
    /// ever gave a block, the zeroed start included.
    history: BTreeSet<(u64, u64)>,
    /// Logical blocks in the volume (the oracle's address space).
    blocks: u64,
}

impl Bed {
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
                if !self.history.contains(&(lba, hash)) {
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

    /// With no link fault ever handed out, the registry must show a
    /// quiet run — no NAKs, no ack collection failures, no lifecycle
    /// transitions.
    fn check_quiet_run(&self) -> Result<(), String> {
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

    /// Post-quiescence checks of the cluster plane, per group: every
    /// replica online with an empty dirty map and bit-identical to its
    /// group primary, and what the cluster booked as sent (foreground +
    /// resync + scrub probes + read requests) equal to what hit each
    /// wire. A one-group world also checks the lifecycle chain; with
    /// several groups sharing one registry, replica indices collide.
    fn check_cluster(&self, sharded: &ShardedCluster<MemDevice>) -> Result<(), String> {
        let per_group = sharded.group(0).replica_count();
        for g in 0..sharded.group_count() {
            let cluster = sharded.group(g);
            for idx in 0..per_group {
                let status = cluster.status(idx);
                if status.state != ReplicaState::Online || status.dirty_blocks != 0 {
                    return Err(format!(
                        "group {g} replica {idx} not converged: {:?}, {} dirty blocks",
                        status.state, status.dirty_blocks
                    ));
                }
                let sent = self.nodes[g * per_group + idx].wire_bytes();
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
            self.check_identity(cluster.device(), g * per_group..(g + 1) * per_group)
                .map_err(|e| format!("group {g}: {e}"))?;
        }
        if sharded.group_count() == 1 {
            check_lifecycle_chain(&self.registry, per_group)?;
        }
        Ok(())
    }

    /// Post-flush checks of the engine: every lane that never failed is
    /// bit-identical to the primary and acknowledged every accepted
    /// write (a failed lane stays behind for good — the engine has no
    /// resync layer); each lane's frames tile the sequence space, so
    /// sequence numbers strictly increase (see
    /// [`EventRing::lane_send_order`](prins_obs::EventRing::lane_send_order));
    /// the booked `replicated_payload_bytes` equal what hit the wires;
    /// and the registry balances the engine's own counters — every
    /// accepted write admitted, every transmission a `send` event, every
    /// admission an encode sample, one ack-RTT sample per ack event.
    fn check_engine(&self, engine: &PrinsEngine) -> Result<(), String> {
        let ring = self.registry.events();
        let lanes = engine.lane_stats();
        let stats = engine.stats();
        for (lane, l) in lanes.iter().enumerate() {
            if l.errors == 0 {
                self.check_identity(&**engine.device(), lane..lane + 1)?;
                if l.acked_writes != stats.writes {
                    return Err(format!(
                        "engine lane {lane}: {} acked writes != {} writes",
                        l.acked_writes, stats.writes
                    ));
                }
            }
            ring.lane_send_order(lane)?;
        }
        let snap = self.registry.snapshot();
        let samples = |name: &str| snap.histograms.get(name).map_or(0, |h| h.count);
        let wire = self.nodes.iter().map(Node::wire_bytes).sum();
        let sends = lanes.iter().map(|l| l.sends).sum();
        let admits = ring.count("admit");
        let acks = ring.count("ack-ok") + ring.count("nak") + ring.count("ack-error");
        let rtts = samples("stage_ack_rtt_nanos");
        let encodes = samples("stage_encode_nanos");
        for (what, left, right) in [
            ("booked / wire bytes", stats.replicated_payload_bytes, wire),
            ("writes / admits", stats.writes, admits),
            ("lane sends / send events", sends, ring.count("send")),
            ("ack events / ack-RTT samples", acks, rtts),
            ("admits / encode samples", admits, encodes),
        ] {
            if left != right {
                return Err(format!("engine {what}: {left} != {right}"));
            }
        }
        Ok(())
    }

    /// Byte-exact strip invariant: every live node's strip equals the
    /// systematic encoding of the primary's logical image. A down node
    /// (its link severed by [`World::fail_node`]) missed the degraded
    /// writes; a rebuild brings it back under the check.
    fn check_strips(&self, group: &EcGroup<MemDevice, ReedSolomon>) -> Result<(), String> {
        let p = group.placement();
        for stripe in 0..group.stripes() {
            let data = (0..p.k as u64)
                .map(|col| {
                    group
                        .device()
                        .read_block_vec(Lba(stripe * p.k as u64 + col))
                })
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| format!("primary read stripe {stripe}: {e}"))?;
            let refs: Vec<&[u8]> = data.iter().map(Vec::as_slice).collect();
            let parity = ReedSolomon::k4m2()
                .encode(&refs)
                .map_err(|e| format!("encode stripe {stripe}: {e}"))?;
            for (role, want) in data.iter().chain(&parity).enumerate() {
                let node = &self.nodes[p.node_for(stripe, role)];
                if !node.ctl.is_up() {
                    continue;
                }
                let got = node
                    .dev
                    .read_block_vec(Lba(stripe))
                    .map_err(|e| format!("stripe {stripe} role {role} read: {e}"))?;
                if &got != want {
                    return Err(format!(
                        "stripe {stripe} role {role}: node {}'s strip diverges \
                         from encode(logical)",
                        p.node_for(stripe, role)
                    ));
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
        if !matches!((parse(from), parse(to)), (Some(f), Some(t)) if f.can_transition(t)) {
            return Err(format!(
                "replica {idx} recorded machine-illegal transition {from}->{to}"
            ));
        }
        position[idx] = to;
    }
    Ok(())
}

/// What a [`World`] is built around. A field is here only if some
/// caller sets it to more than one value; everything else is a
/// constant of this module (link delays, ack timeouts, the engine's 8
/// blocks, the EC group's 4 stripes).
#[derive(Clone, Copy, Debug)]
pub enum Topology {
    /// The cluster plane: a [`ShardedCluster`] of replica groups
    /// behind an equal-weight rendezvous placement — degraded writes,
    /// resync, offloaded reads and live migration between groups. Every
    /// group shares one [`SimNet`] and one registry, and every device
    /// spans the whole volume. A plain replicated cluster is
    /// `groups = 1`: the placement routes every LBA to group 0 at the
    /// same LBA, so the world *is* that [`ClusterGroup`].
    Cluster {
        /// Blocks in the volume (and in every device).
        blocks: u64,
        /// Replica groups.
        groups: usize,
        /// Replicas per group.
        replicas: usize,
        /// Every group's configuration.
        config: ClusterConfig,
        /// Contiguous LBAs the placement hashes as one slot, so
        /// slot-sized runs share an owner and migrations have ranges
        /// to move (immaterial with one group).
        slot_blocks: u64,
    },
    /// A stepped [`PrinsEngine`] — the foreground pipeline (batching,
    /// windowed acks, corrupt-NAK retransmit) in virtual time.
    Engine {
        /// Replica count.
        replicas: usize,
        /// Frames batched per wire message (1 = off).
        batch_frames: usize,
        /// In-flight frames allowed per lane.
        ack_window: usize,
        /// Drive replication with the adaptive policy engine (default
        /// config); `batch_frames` holds as configured.
        adaptive: bool,
    },
    /// An [`EcGroup`] at the paper's `k = 4, m = 2` Reed–Solomon
    /// geometry: k-of-n strip placement, sparse delta parity updates,
    /// node loss and repair-bandwidth-accounted rebuild. Every node
    /// runs the stock apply loop with that codec.
    Ec,
}

/// The system under test.
enum Sut {
    Cluster(ShardedCluster<MemDevice>),
    Engine(PrinsEngine),
    Ec {
        group: EcGroup<MemDevice, ReedSolomon>,
        /// Nodes swapped in so far (names each replacement's link).
        replacements: usize,
    },
}

/// One system under test over simulated links, with the history oracle
/// and the invariant checks. See the [crate docs](crate).
pub struct World {
    sut: Sut,
    bed: Bed,
    /// Whether a link's fault controls were ever handed out (or a node
    /// failed); until then the run must be quiet.
    faulted: Cell<bool>,
}

impl World {
    /// A fresh world: all devices zeroed, all links up, no faults
    /// scheduled, the system under test recording into the world's
    /// registry and trace sink on the network's virtual clock.
    pub fn new(topology: Topology) -> Self {
        let net = SimNet::new();
        let registry = Registry::new();
        let farm = |count: usize, prefix: &str, blocks: u64, delay: Duration, strips: bool| {
            (0..count)
                .map(|idx| spawn_node(&net, &format!("{prefix}{idx}"), blocks, delay, strips))
                .collect::<Vec<Node>>()
        };
        let (sut, nodes, trace, blocks) = match topology {
            Topology::Cluster {
                blocks,
                groups,
                replicas,
                config,
                slot_blocks,
            } => {
                let nodes = farm(groups * replicas, "replica", blocks, LINK_DELAY, false);
                let cluster_groups = nodes
                    .chunks(replicas)
                    .map(|farm| {
                        let device = MemDevice::new(BLOCK, blocks);
                        let mut group = ClusterGroup::new(device, config, transports(farm));
                        group.attach_observer(Arc::clone(&registry), net.clock());
                        group
                    })
                    .collect();
                let placement =
                    RendezvousPlacement::new(blocks, groups).with_slot_blocks(slot_blocks);
                let mut sharded = ShardedCluster::new(placement, cluster_groups);
                sharded.attach_observer(Arc::clone(&registry), net.clock());
                // One shard id per group, plus the migration namespace
                // when there is a second group to migrate to.
                let trace = Arc::new(TraceSink::new(TraceConfig {
                    shards: groups + usize::from(groups > 1),
                }));
                sharded.attach_tracer(Arc::clone(&trace), net.clock());
                (Sut::Cluster(sharded), nodes, trace, blocks)
            }
            Topology::Engine {
                replicas,
                batch_frames,
                ack_window,
                adaptive,
            } => {
                let primary = Arc::new(MemDevice::new(BLOCK, ENGINE_BLOCKS));
                let nodes = farm(replicas, "replica", ENGINE_BLOCKS, ENGINE_LINK_DELAY, false);
                let mut builder = EngineBuilder::new(primary)
                    .manual_stepping(true)
                    .observe(Arc::clone(&registry))
                    .clock(net.clock())
                    .flight_recorder(TraceConfig::default())
                    .batch_frames(batch_frames)
                    .ack_policy(AckPolicy::Window(ack_window))
                    .ack_timeout(ACK_TIMEOUT);
                if adaptive {
                    builder = builder.adaptive(prins_policy::PolicyConfig::default());
                }
                for transport in transports(&nodes) {
                    builder = builder.replica(transport);
                }
                let engine = builder.build();
                let trace = Arc::clone(engine.trace_sink().expect("tracing enabled above"));
                (Sut::Engine(engine), nodes, trace, ENGINE_BLOCKS)
            }
            Topology::Ec => {
                let codec = ReedSolomon::k4m2();
                let nodes = farm(codec.total_strips(), "node", EC_STRIPES, LINK_DELAY, true);
                let blocks = EC_STRIPES * codec.data_strips() as u64;
                let config = EcConfig {
                    ack_timeout: ACK_TIMEOUT,
                };
                let logical = MemDevice::new(BLOCK, blocks);
                let mut group = EcGroup::new(logical, codec, config, transports(&nodes));
                group.attach_observer(Arc::clone(&registry), net.clock());
                let trace = Arc::new(TraceSink::new(TraceConfig::default()));
                group.attach_tracer(Arc::clone(&trace), 0, net.clock());
                let sut = Sut::Ec {
                    group,
                    replacements: 0,
                };
                (sut, nodes, trace, blocks)
            }
        };
        let zero = content_hash(&vec![0u8; BLOCK.bytes()]);
        Self {
            sut,
            bed: Bed {
                net,
                registry,
                trace,
                nodes,
                history: (0..blocks).map(|lba| (lba, zero)).collect(),
                blocks,
            },
            faulted: Cell::new(false),
        }
    }

    /// The simulated network (trace, clock, message log).
    pub(crate) fn net(&self) -> &SimNet {
        &self.bed.net
    }

    /// The registry the system under test records into (one for the
    /// whole volume, so a scenario's event summary covers every group).
    pub fn registry(&self) -> &Arc<Registry> {
        &self.bed.registry
    }

    /// The per-write trace sink: the cluster's (one shard id per group,
    /// one more for migration batches), the engine's per-write traces,
    /// or the EC group's strip fan-out traces. Virtual clock reads are
    /// free, so event goldens are unaffected.
    pub(crate) fn trace_sink(&self) -> &Arc<TraceSink> {
        &self.bed.trace
    }

    /// Logical blocks in the volume.
    pub fn blocks(&self) -> u64 {
        self.bed.blocks
    }

    /// Links in the world: the range of [`ctl`](Self::ctl)'s index.
    pub(crate) fn links(&self) -> usize {
        self.bed.nodes.len()
    }

    /// Fault controls for link `link`, indexed flat over the node farm:
    /// cluster group `g`, replica `r` is `g × replicas + r`; engine
    /// replica `r` is `r`; EC node `n` is `n`.
    pub fn ctl(&self, link: usize) -> &SimLinkCtl {
        self.faulted.set(true);
        &self.bed.nodes[link].ctl
    }

    /// The backing device behind link `link` (indexed as
    /// [`ctl`](Self::ctl)).
    pub(crate) fn replica_dev(&self, link: usize) -> &Arc<MemDevice> {
        &self.bed.nodes[link].dev
    }

    /// The sharded cluster under test. Panics unless the topology is
    /// [`Topology::Cluster`].
    pub(crate) fn sharded(&self) -> &ShardedCluster<MemDevice> {
        match &self.sut {
            Sut::Cluster(sharded) => sharded,
            _ => panic!("not a cluster world"),
        }
    }

    /// Mutable access to the sharded cluster under test.
    pub(crate) fn sharded_mut(&mut self) -> &mut ShardedCluster<MemDevice> {
        match &mut self.sut {
            Sut::Cluster(sharded) => sharded,
            _ => panic!("not a cluster world"),
        }
    }

    /// Replica group `g` (group 0 is *the* cluster of a one-group world).
    pub(crate) fn group(&self, g: usize) -> &ClusterGroup<MemDevice> {
        self.sharded().group(g)
    }

    /// Mutable access to replica group `g`.
    pub fn group_mut(&mut self, g: usize) -> &mut ClusterGroup<MemDevice> {
        self.sharded_mut().group_mut(g)
    }

    /// The engine under test. Panics unless the topology is
    /// [`Topology::Engine`].
    pub(crate) fn engine(&self) -> &PrinsEngine {
        match &self.sut {
            Sut::Engine(engine) => engine,
            _ => panic!("not an engine world"),
        }
    }

    /// The erasure-coded group under test. Panics unless the topology
    /// is [`Topology::Ec`].
    pub(crate) fn ec(&self) -> &EcGroup<MemDevice, ReedSolomon> {
        match &self.sut {
            Sut::Ec { group, .. } => group,
            _ => panic!("not an EC world"),
        }
    }

    /// Writes `data` through the system under test and records it in
    /// the oracle unless the primary's own write failed (a quorum loss
    /// or a strip failure comes after the primary applied it). Returns
    /// the replicas or strip nodes the write skipped as offline or
    /// down; the engine replicates asynchronously and skips none here.
    fn write(&mut self, lba: u64, data: &[u8]) -> Result<usize, ClusterError> {
        let at = Lba(lba);
        let res = match &mut self.sut {
            Sut::Cluster(sharded) => sharded.write(at, data).map(|o| o.skipped),
            Sut::Engine(engine) => engine.write_block(at, data).map(|()| 0).map_err(Into::into),
            Sut::Ec { group, .. } => group.write(at, data).map(|o| o.skipped),
        };
        if !matches!(res, Err(ClusterError::Block(_))) {
            self.bed.history.insert((lba, content_hash(data)));
        }
        res
    }

    /// Writes a deterministic sparse block derived from `(lba, tag)` —
    /// a few header bytes over zeros, so PRINS parities stay small.
    /// Returns what the topology's write returns.
    pub fn write_tag(&mut self, lba: u64, tag: u8) -> Result<usize, ClusterError> {
        let mut data = vec![0u8; BLOCK.bytes()];
        data[..8].copy_from_slice(&lba.to_le_bytes());
        data[8] = tag;
        data[9] = tag.wrapping_mul(31).wrapping_add(7);
        self.write(lba, &data)
    }

    /// Writes a dense block derived from `(lba, tag)`: every byte
    /// changes between tags and the xorshift stream defeats both the
    /// compressibility probe and LZSS — the churn shape, as opposed to
    /// [`write_tag`](Self::write_tag)'s small deltas.
    pub(crate) fn write_fill(&mut self, lba: u64, tag: u8) -> Result<usize, ClusterError> {
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

    /// The device holding the primary image of `lba`.
    fn primary(&self, lba: u64) -> &dyn BlockDevice {
        match &self.sut {
            Sut::Cluster(sharded) => sharded.group(sharded.owner(Lba(lba))).device(),
            Sut::Engine(engine) => &**engine.device(),
            Sut::Ec { group, .. } => group.device(),
        }
    }

    /// Reads `lba` the topology's way — through the cluster (offloading
    /// to a replica when the freshness guard allows), through the
    /// engine, or decoded off the EC group's strips (erased columns
    /// reconstructed) — and checks the read oracle: the content must
    /// equal the primary's *current* block (an offloaded read may never
    /// observe pre-rejoin state) and be a state the volume actually
    /// had.
    ///
    /// # Errors
    ///
    /// A failed, stale or unhistorical read (`Err` with the
    /// diagnostic); a cluster read's transport failure degrades the
    /// replica and falls back, so it does not surface here.
    pub fn read_checked(&mut self, lba: u64) -> Result<(), String> {
        let at = Lba(lba);
        let got = match &mut self.sut {
            Sut::Cluster(sharded) => sharded.read(at).map(|out| out.data),
            Sut::Engine(engine) => engine.read_block_vec(at).map_err(Into::into),
            Sut::Ec { group, .. } => group.decode_logical(at),
        }
        .map_err(|e| format!("read lba {lba}: {e}"))?;
        let want = self
            .primary(lba)
            .read_block_vec(at)
            .map_err(|e| format!("primary read lba {lba}: {e}"))?;
        if got != want {
            return Err(format!(
                "read of lba {lba} differs from the primary image (freshness oracle violated)"
            ));
        }
        if !self.bed.history.contains(&(lba, content_hash(&got))) {
            return Err(format!(
                "read of lba {lba} returned a state the volume never had"
            ));
        }
        Ok(())
    }

    /// Waits out what is in flight: drains every cluster group, flushes
    /// the engine (the error carries any lane failure since the last
    /// flush); the EC group is closed-loop, so a no-op there.
    pub(crate) fn barrier(&mut self) -> Result<(), String> {
        match &mut self.sut {
            Sut::Cluster(sharded) => {
                for g in 0..sharded.group_count() {
                    sharded.group_mut(g).drain();
                }
                Ok(())
            }
            Sut::Engine(engine) => engine.flush().map_err(|e| e.to_string()),
            Sut::Ec { .. } => Ok(()),
        }
    }

    /// Kills EC node `idx`: the group stops routing strips to it and its
    /// link is severed — a write that tried anyway would time out.
    ///
    /// # Errors
    ///
    /// [`ClusterError::UnknownReplica`] for a bad index.
    pub(crate) fn fail_node(&mut self, idx: usize) -> Result<(), ClusterError> {
        let Sut::Ec { group, .. } = &mut self.sut else {
            panic!("not an EC world")
        };
        group.mark_down(idx)?;
        self.ctl(idx).sever();
        Ok(())
    }

    /// Swaps a fresh node (wiped device, new applier, new link) into EC
    /// slot `idx` and rebuilds its strips from `k` survivors.
    ///
    /// # Errors
    ///
    /// The rebuild's transport or reconstruction failure.
    pub(crate) fn replace_and_rebuild(&mut self, idx: usize) -> Result<EcRebuildReport, String> {
        let Sut::Ec {
            group,
            replacements,
        } = &mut self.sut
        else {
            panic!("not an EC world")
        };
        *replacements += 1;
        let name = format!("node{idx}-r{replacements}");
        let node = spawn_node(&self.bed.net, &name, group.stripes(), LINK_DELAY, true);
        group
            .replace_node(idx, Box::new(node.primary_end.clone()))
            .map_err(|e| format!("replace node {idx}: {e}"))?;
        self.bed.nodes[idx] = node;
        group
            .rebuild(idx)
            .map_err(|e| format!("rebuild node {idx}: {e}"))
    }

    /// Brings the world to rest and heals every link. The engine flushes
    /// first, while the faults are still live: flushed over healed
    /// links, a lane that had lost a frame would ship the block's next
    /// parity over the gap. The flush's error names lanes that failed,
    /// which
    /// [`check_invariants`](Self::check_invariants) accounts for. Every
    /// down EC node is rebuilt. Every cluster group, once healed, drains
    /// and resyncs each non-online replica until all are online
    /// (bounded retries).
    ///
    /// # Errors
    ///
    /// If a replica cannot be brought back online or a node rebuilt.
    pub fn quiesce(&mut self) -> Result<(), String> {
        match &self.sut {
            Sut::Engine(engine) => {
                let _ = engine.flush();
            }
            Sut::Ec { .. } => {
                for idx in 0..self.links() {
                    if !self.bed.nodes[idx].ctl.is_up() {
                        self.replace_and_rebuild(idx)?;
                    }
                }
            }
            Sut::Cluster(_) => {}
        }
        self.bed.heal_links();
        self.bed.net.run_until_idle();
        if let Sut::Cluster(sharded) = &mut self.sut {
            for g in 0..sharded.group_count() {
                converge(g, sharded.group_mut(g))?;
            }
        }
        self.bed.net.run_until_idle();
        Ok(())
    }

    /// Cheap mid-run invariant. Cluster and engine: every replica block
    /// is a state the volume actually had (corruption shows up here
    /// before quiescence). EC: every live node's strips encode the
    /// logical image — nodes hold strips, not logical blocks, and
    /// closed-loop writes keep them exact between calls.
    pub fn check_historical(&self) -> Result<(), String> {
        match &self.sut {
            Sut::Ec { group, .. } => self.bed.check_strips(group),
            _ => self.bed.check_historical(),
        }
    }

    /// The full invariant set, at quiescence (for the engine: after a
    /// flush). Every topology: [`check_historical`](Self::check_historical),
    /// per-LBA delivery order with no duplicate delivery, and — when no
    /// fault control was ever handed out — a quiet registry. Then, per
    /// topology:
    ///
    /// * **cluster** — every replica online, clean and bit-identical to
    ///   its group primary, byte conservation against the wire meters,
    ///   and (one group) the lifecycle chain;
    /// * **engine** — bit-identity for every lane that never failed,
    ///   per-lane send order, byte conservation, and the registry
    ///   balanced against the engine's counters (obs balance). It has
    ///   no replica lifecycle, so no chain;
    /// * **EC** — every logical block decoded off the strips equals the
    ///   primary and is historical. Up to `m` nodes may be down. There
    ///   is no byte conservation: the group books per-write and rebuild
    ///   bytes but not its strip reads, so no total meets the meters.
    ///
    /// # Errors
    ///
    /// The first violated invariant.
    pub fn check_invariants(&mut self) -> Result<(), String> {
        self.check_historical()?;
        self.bed.check_delivery_order()?;
        match &self.sut {
            Sut::Cluster(sharded) => self.bed.check_cluster(sharded)?,
            Sut::Engine(engine) => self.bed.check_engine(engine)?,
            Sut::Ec { .. } => {
                for lba in 0..self.bed.blocks {
                    self.read_checked(lba)?;
                }
            }
        }
        if !self.faulted.get() {
            self.bed.check_quiet_run()?;
        }
        Ok(())
    }
}

/// Drains group `g` and rejoins + resyncs each of its non-online
/// replicas until all are online (bounded retries).
fn converge(g: usize, cluster: &mut ClusterGroup<MemDevice>) -> Result<(), String> {
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
                if let Err(e) = cluster.rejoin(idx) {
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
    Ok(())
}
