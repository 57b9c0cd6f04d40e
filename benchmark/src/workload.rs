//! The four workloads and the closed loop that drives one timed repeat
//! of any of them: fresh devices, fresh system under test, one client
//! thread, then the consistency check.

use std::net::TcpListener;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use prins_block::{BlockDevice, MemDevice};
use prins_cluster::{ClusterConfig, ClusterGroup};
use prins_core::{EngineBuilder, EngineStats, LaneStats, PrinsEngine};
use prins_net::{
    channel_pair, LinkModel, MeterSnapshot, TcpTransport, TrafficMeter, Transport, WallClock,
};
use prins_obs::{Registry, Snapshot, TraceConfig};
use prins_policy::PolicyConfig;
use prins_repl::{run_replica, verify_consistent, AckPolicy, ReplError, ReplicationMode};
use prins_workloads::{ScalePreset, Workload};

use crate::measure;
use crate::traceloop::{OpList, TraceLoop};

/// Replica links per workload. The box has two cores: one client
/// thread, two links.
pub const REPLICAS: usize = 2;
// Engine knobs, fixed for every engine workload. Coalescing stays off:
// it makes work and wire bytes depend on thread timing.
pub const ENCODE_WORKERS: usize = 2;
pub const ACK_WINDOW: usize = 8;
pub const BATCH_FRAMES: usize = 8;
pub const COALESCE: bool = false;
/// Far above any repeat, so a noisy neighbour shows up as a slow
/// repeat, never as a replication error.
pub const ACK_TIMEOUT: Duration = Duration::from_secs(60);
/// A repeat that overruns its budget by this factor counts as failed.
pub const OVERRUN_FACTOR: u32 = 5;
const STALL_NS: u32 = 10_000_000;
/// Writes a streaming client keeps in flight before it waits for the
/// replicas. The engine's admission queue has no bound of its own: an
/// unthrottled client admits about twice as fast as the pipeline
/// drains, so a time-bounded run would end in a drain as long as the
/// run, with gigabytes of queued block images. 4096 writes × two 8 KB
/// images caps the backlog at 64 MB and costs one pipeline drain per
/// ~0.1 s of work.
pub const STREAM_WINDOW: usize = 4096;

/// Which data plane a workload drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Path {
    /// `PrinsEngine::write_block`, static PRINS strategy.
    Engine,
    /// The engine built with `EngineBuilder::adaptive`.
    EngineAdaptive,
    /// `ClusterGroup::write` / `read`.
    Cluster,
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub content: Workload,
    /// Operations the content generator runs at full scale.
    pub txns: usize,
    pub path: Path,
    /// Replica links over loopback TCP instead of in-memory channels.
    pub tcp: bool,
    /// Writes per `replication_barrier` (0: only the one at the end).
    pub commit_every: usize,
    /// Whether the client-visible operation is the commit group (first
    /// write to barrier return) rather than the single write call.
    pub op_is_commit: bool,
    /// Writes per `ClusterGroup::read` (0: no reads).
    pub read_every: usize,
}

pub const SPECS: [Spec; 4] = [
    Spec {
        name: "tpcc-stream",
        why: "TPC-C deltas (~440 wire B/write) streamed through the engine, a barrier every 4096 writes: per-write fixed cost of core/buf/repl dominates; compress and policy idle",
        content: Workload::TpccOracle,
        txns: 2000,
        path: Path::Engine,
        tcp: false,
        commit_every: STREAM_WINDOW,
        op_is_commit: false,
        read_every: 0,
    },
    Spec {
        name: "tpcc-commit",
        why: "Same content, a barrier every 8 writes over loopback TCP: latency, not throughput; wake-ups, socket calls and the ack path dominate, batching cannot hide hops",
        content: Workload::TpccOracle,
        txns: 2000,
        path: Path::Engine,
        tcp: true,
        commit_every: 8,
        op_is_commit: true,
        read_every: 0,
    },
    Spec {
        name: "hostile-adaptive",
        why: "Three-zone hostile mix through the adaptive policy engine: byte-volume work (LZSS, classify/trial/rescue, full-block CRC and copies) dominates; hand-off cost is diluted",
        content: Workload::HostileMixed,
        txns: 3000,
        path: Path::EngineAdaptive,
        tcp: false,
        commit_every: STREAM_WINDOW,
        op_is_commit: false,
        read_every: 0,
    },
    Spec {
        name: "cluster-rw",
        why: "TPC-C content through ClusterGroup::write with a read after every 4th write: the allocating, synchronous data plane and read offload, beside the engine path",
        content: Workload::TpccOracle,
        txns: 2000,
        path: Path::Cluster,
        tcp: false,
        commit_every: 0,
        op_is_commit: false,
        read_every: 4,
    },
];

pub fn spec(name: &str) -> Option<&'static Spec> {
    SPECS.iter().find(|s| s.name == name)
}

/// How much of everything one invocation does.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    pub preset: ScalePreset,
    /// Divides every workload's `txns`.
    pub txn_div: usize,
    /// Untimed writes at the start of each repeat: fills the buffer
    /// pool, the lane queues, the TCP windows.
    pub warmup_ops: usize,
    /// Timed repeats sharing a run's seconds. Only the half the
    /// hypervisor disturbed least is kept (see [`least_stolen`]); every
    /// reported value is the median over those.
    pub repeats: usize,
    /// Times set-up is run and timed, under the same rule.
    pub setups: usize,
    /// Writes the single-threaded layer replay performs at most.
    pub replay_ops: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        preset: ScalePreset::Bench,
        txn_div: 1,
        warmup_ops: 2000,
        repeats: 20,
        setups: 5,
        replay_ops: 20_000,
    };
    /// One repeat on 1/20 of the content, for tests and a quick look.
    pub const SMOKE: Scale = Scale {
        preset: ScalePreset::Smoke,
        txn_div: 20,
        warmup_ops: 100,
        repeats: 1,
        setups: 1,
        replay_ops: 1000,
    };
}

/// Keeps the half of `runs` (rounded up) during which the hypervisor
/// stole the least CPU time from this machine.
///
/// The box is a shared VM whose neighbours take anything from 2 % to
/// 90 % of the CPU in bursts of seconds to a minute, and stolen time
/// only ever makes the program look slower. Steal is external to the
/// program, so choosing by it does not favour any version of the code;
/// it keeps a run's length fixed and needs no threshold.
pub fn least_stolen<T>(mut runs: Vec<T>, steal: impl Fn(&T) -> f64) -> Vec<T> {
    let keep = runs.len().div_ceil(2);
    runs.sort_by(|a, b| steal(a).total_cmp(&steal(b)));
    if let (Some(first), Some(last)) = (runs.first(), runs.last()) {
        eprintln!(
            "steal: keeping {keep} of {} runs at {:.1}..{:.1} %, worst dropped {:.1} %",
            runs.len(),
            steal(first) * 100.0,
            steal(&runs[keep - 1]) * 100.0,
            steal(last) * 100.0
        );
    }
    runs.truncate(keep);
    runs
}

/// Captures and converts a workload's content; the timed part of
/// set-up together with the device seeding [`Fixture::new`] does.
pub fn capture(spec: &Spec, scale: &Scale, seed: u64) -> Result<OpList, String> {
    let txns = (spec.txns / scale.txn_div).max(1);
    let list = OpList::capture(spec.content, txns, scale.preset, seed)
        .map_err(|e| format!("{}: capture failed: {e}", spec.name))?;
    if list.ops.is_empty() {
        return Err(format!("{}: empty trace", spec.name));
    }
    Ok(list)
}

fn link() -> LinkModel {
    // Only the packetization model matters to the meters, and it is the
    // same for every bandwidth.
    LinkModel::t1()
}

/// A thread serving the far end of a link.
pub type Served<R> = JoinHandle<Result<R, ReplError>>;

/// Primary and replica devices seeded with the pre-trace image, one
/// `run_replica` thread per replica, and the primary-side transports.
pub struct Fixture {
    pub primary: Arc<MemDevice>,
    pub replicas: Vec<Arc<MemDevice>>,
    workers: Vec<Served<u64>>,
    meters: Vec<Arc<TrafficMeter>>,
    transports: Vec<Box<dyn Transport>>,
}

/// Connects one primary-side transport to `serve` running on its own
/// thread with the other end — in memory, or over loopback TCP on a
/// port the kernel picks.
pub fn connect<R: Send + 'static>(
    tcp: bool,
    serve: impl FnOnce(&dyn Transport) -> Result<R, ReplError> + Send + 'static,
) -> Result<(Box<dyn Transport>, Served<R>), String> {
    if tcp {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = listener
            .local_addr()
            .map_err(|e| format!("local_addr: {e}"))?;
        let worker = std::thread::spawn(move || {
            let transport = TcpTransport::accept(&listener, link())?;
            serve(&transport)
        });
        let transport =
            TcpTransport::connect(addr, link()).map_err(|e| format!("connect {addr}: {e}"))?;
        Ok((Box::new(transport), worker))
    } else {
        let (near, far) = channel_pair(link());
        let worker = std::thread::spawn(move || serve(&far));
        Ok((Box::new(near), worker))
    }
}

impl Fixture {
    /// The primary's device and one per replica, each seeded with
    /// `image`.
    pub fn devices(list: &OpList, image: &[u8]) -> Vec<Arc<MemDevice>> {
        (0..=REPLICAS)
            .map(|_| Arc::new(MemDevice::from_contents(list.block_size, image)))
            .collect()
    }

    pub fn new(list: &OpList, image: &[u8], tcp: bool) -> Result<Self, String> {
        let mut devices = Self::devices(list, image);
        let mut fixture = Fixture {
            primary: devices.remove(0),
            replicas: devices,
            workers: Vec::new(),
            meters: Vec::new(),
            transports: Vec::new(),
        };
        for device in &fixture.replicas {
            let dev = Arc::clone(device);
            let (transport, worker) = connect(tcp, move |t: &dyn Transport| {
                run_replica(&*dev, &TransportRef(t))
            })?;
            fixture.meters.push(Arc::clone(transport.meter()));
            fixture.transports.push(transport);
            fixture.workers.push(worker);
        }
        Ok(fixture)
    }

    fn meter_snapshots(&self) -> Vec<MeterSnapshot> {
        self.meters.iter().map(|m| m.snapshot()).collect()
    }
}

/// `run_replica` wants a sized `Transport`; this lends it a `dyn` one.
struct TransportRef<'a>(&'a dyn Transport);

impl Transport for TransportRef<'_> {
    fn send(&self, msg: &[u8]) -> Result<(), prins_net::NetError> {
        self.0.send(msg)
    }
    fn recv(&self) -> Result<Vec<u8>, prins_net::NetError> {
        self.0.recv()
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<Vec<u8>, prins_net::NetError> {
        self.0.recv_timeout(timeout)
    }
    fn meter(&self) -> &Arc<TrafficMeter> {
        self.0.meter()
    }
}

/// The system under test behind the two calls the loop needs.
enum Sut {
    Engine(Box<PrinsEngine>),
    Cluster(Box<ClusterGroup<Arc<MemDevice>>>),
}

impl Sut {
    fn build(spec: &Spec, fx: &mut Fixture, registry: Option<&Arc<Registry>>) -> Sut {
        let transports = std::mem::take(&mut fx.transports);
        if spec.path == Path::Cluster {
            let config = ClusterConfig {
                ack_timeout: ACK_TIMEOUT,
                ..ClusterConfig::default()
            };
            let mut cluster = ClusterGroup::new(Arc::clone(&fx.primary), config, transports);
            if let Some(registry) = registry {
                cluster.attach_observer(Arc::clone(registry), Arc::new(WallClock::new()));
            }
            return Sut::Cluster(Box::new(cluster));
        }
        let mut builder = EngineBuilder::new(Arc::clone(&fx.primary) as Arc<dyn BlockDevice>)
            .mode(ReplicationMode::Prins)
            .encode_workers(ENCODE_WORKERS)
            .ack_policy(AckPolicy::Window(ACK_WINDOW))
            .batch_frames(BATCH_FRAMES)
            .coalesce(COALESCE)
            .ack_timeout(ACK_TIMEOUT);
        if spec.path == Path::EngineAdaptive {
            builder = builder.adaptive(PolicyConfig::default());
        }
        for transport in transports {
            builder = builder.replica(transport);
        }
        if let Some(registry) = registry {
            builder = builder
                .observe(Arc::clone(registry))
                .flight_recorder(TraceConfig::default());
        }
        Sut::Engine(Box::new(builder.build()))
    }

    fn write(&mut self, lba: prins_block::Lba, image: &[u8]) -> Result<(), String> {
        match self {
            Sut::Engine(engine) => engine.write_block(lba, image).map_err(|e| e.to_string()),
            Sut::Cluster(cluster) => cluster
                .write(lba, image)
                .map(drop)
                .map_err(|e| e.to_string()),
        }
    }

    fn barrier(&mut self) -> Result<(), String> {
        match self {
            Sut::Engine(engine) => engine.replication_barrier().map_err(|e| e.to_string()),
            Sut::Cluster(cluster) => {
                cluster.drain();
                Ok(())
            }
        }
    }
}

/// Everything one timed repeat observed, from outside.
#[derive(Default)]
pub struct Repeat {
    pub writes: u64,
    pub reads: u64,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Primary-side links, summed.
    pub wire_bytes: u64,
    pub frames: u64,
    pub packets: u64,
    /// Sorted nanoseconds of each write call, each commit group (first
    /// write to barrier return) and each read call.
    pub write_ns: Vec<u32>,
    pub commit_ns: Vec<u32>,
    pub read_ns: Vec<u32>,
    /// The final barrier (`flush` / `drain`).
    pub flush_ns: u64,
    /// Errored calls + replication errors + blocks failing the final
    /// check (+1 for a repeat that overran its watchdog).
    pub failed: u64,
    pub stalls_over_10ms: u64,
    /// Whole-process allocations inside the window (0 unless counting).
    pub allocs: u64,
    pub engine: Option<(EngineStats, Vec<LaneStats>)>,
    /// Reads a replica served.
    pub reads_offloaded: u64,
    /// Registry snapshot taken after the final barrier (traced repeats).
    pub snapshot: Option<Snapshot>,
    pub warmup_writes: u64,
    /// Share of the machine's CPU time stolen by the hypervisor during
    /// the window.
    pub steal_share: f64,
}

impl Repeat {
    /// Books `count` failed operations and says why on stderr.
    fn fail(&mut self, count: u64, why: &str) {
        if count > 0 {
            self.failed += count;
            eprintln!("FAILED x{count}: {why}");
        }
    }
}

fn nanos(since: Instant) -> u32 {
    u32::try_from(since.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

fn diff_blocks(a: &[u8], b: &[u8], bs: usize) -> u64 {
    if a.len() != b.len() {
        return (a.len().max(b.len()) / bs) as u64;
    }
    a.chunks(bs)
        .zip(b.chunks(bs))
        .filter(|(x, y)| x != y)
        .count() as u64
}

/// Runs one repeat of `spec` for `budget` of measured time, taking its
/// writes from where `tl` stands: the devices start from `tl`'s shadow
/// image and the next repeat carries on from where this one stopped.
/// Restarting the trace every repeat would tie the content a repeat
/// covers, and with it bytes per write, to how fast the program is.
///
/// `registry` turns the program's own hooks on (a traced repeat);
/// `count` raises the allocation counter for the window. End-to-end
/// numbers are taken with both off.
pub fn run_repeat(
    spec: &Spec,
    list: &OpList,
    tl: &mut TraceLoop<'_>,
    scale: &Scale,
    budget: Duration,
    registry: Option<Arc<Registry>>,
    count: bool,
) -> Result<Repeat, String> {
    let mut fx = Fixture::new(list, tl.shadow(), spec.tcp)?;
    let mut sut = Sut::build(spec, &mut fx, registry.as_ref());
    let mut out = Repeat::default();

    // Bounded in time as well: on a starved machine 2 000 writes can
    // take longer than the window they prepare.
    let warm_deadline = Instant::now() + budget / 4;
    while out.warmup_writes < scale.warmup_ops as u64 && Instant::now() < warm_deadline {
        let (lba, image) = tl.next_write();
        sut.write(lba, image)?;
        out.warmup_writes += 1;
    }
    sut.barrier()?;

    let expected = (budget.as_secs_f64() * 60_000.0) as usize;
    out.write_ns.reserve(expected);
    out.commit_ns
        .reserve(expected.checked_div(spec.commit_every).unwrap_or(0));
    out.read_ns
        .reserve(expected.checked_div(spec.read_every).unwrap_or(0));

    let meters_before = fx.meter_snapshots();
    let allocs_before = measure::allocs();
    measure::count_allocs(count);
    let ticks_before = measure::machine_ticks();
    let cpu_before = measure::cpu_seconds();
    let start = Instant::now();
    let deadline = start + budget;

    let mut group_start = start;
    let mut in_group = 0usize;
    loop {
        let t0 = Instant::now();
        if t0 >= deadline {
            break;
        }
        if in_group == 0 {
            group_start = t0;
        }
        let (lba, image) = tl.next_write();
        let t0 = Instant::now();
        let result = sut.write(lba, image);
        out.write_ns.push(nanos(t0));
        out.writes += 1;
        if let Err(e) = result {
            out.fail(1, &format!("write: {e}"));
            break;
        }
        in_group += 1;
        if spec.commit_every > 0 && in_group == spec.commit_every {
            if let Err(e) = sut.barrier() {
                out.fail(1, &format!("barrier: {e}"));
                break;
            }
            out.commit_ns.push(nanos(group_start));
            in_group = 0;
        }
        if spec.read_every > 0 && out.writes % spec.read_every as u64 == 0 {
            let Sut::Cluster(cluster) = &mut sut else {
                unreachable!("reads are a cluster workload's");
            };
            let t0 = Instant::now();
            let read = cluster.read(lba);
            out.read_ns.push(nanos(t0));
            out.reads += 1;
            match read {
                Ok(outcome) if outcome.data == tl.block(lba) => {
                    out.reads_offloaded += u64::from(outcome.source.is_some());
                }
                Ok(_) => out.fail(1, "read returned a stale or wrong block"),
                Err(e) => out.fail(1, &format!("read: {e}")),
            }
        }
    }
    let t0 = Instant::now();
    if let Err(e) = sut.barrier() {
        out.fail(1, &format!("final barrier: {e}"));
    }
    out.flush_ns = t0.elapsed().as_nanos() as u64;
    let wall = start.elapsed();
    out.cpu_s = measure::cpu_seconds() - cpu_before;
    out.steal_share = measure::steal_share(ticks_before);
    measure::count_allocs(false);
    out.allocs = measure::allocs() - allocs_before;
    out.wall_s = wall.as_secs_f64();
    for (meter, before) in fx.meters.iter().zip(&meters_before) {
        let delta = meter.snapshot().delta(before);
        out.wire_bytes += delta.wire_bytes_sent;
        out.frames += delta.messages_sent;
        out.packets += delta.packets_sent;
    }
    // Below a second the final drain, not the budget, sets the time.
    if wall > budget.max(Duration::from_secs(1)) * OVERRUN_FACTOR {
        out.fail(
            1,
            &format!("repeat took {wall:?} for a budget of {budget:?}"),
        );
    }
    out.snapshot = registry.as_ref().map(|r| r.snapshot());

    // Tear down: hanging up the links ends the replica loops.
    let coalescing_possible = spec.path == Path::EngineAdaptive;
    match sut {
        Sut::Engine(engine) => {
            let stats = engine.stats();
            out.fail(stats.replication_errors, "engine replication errors");
            out.engine = Some((stats, engine.lane_stats()));
            if let Err(e) = engine.shutdown() {
                out.fail(1, &format!("shutdown: {e}"));
            }
        }
        Sut::Cluster(cluster) => {
            for idx in 0..cluster.replica_count() {
                let status = cluster.status(idx);
                // A degraded replica is a replication error here: the
                // workloads inject no faults.
                out.fail(
                    status.dirty_blocks as u64 + status.deferred_writes,
                    "cluster replica degraded",
                );
            }
            drop(cluster);
        }
    }
    let total_writes = out.writes + out.warmup_writes;
    for worker in fx.workers.drain(..) {
        match worker.join().expect("replica thread panicked") {
            // The phase hook of the adaptive engine may switch
            // coalescing on, which folds writes before they ship.
            Ok(applied) if applied == total_writes || coalescing_possible => {}
            Ok(applied) => out.fail(
                1,
                &format!("replica applied {applied} of {total_writes} writes"),
            ),
            Err(e) => out.fail(1, &format!("replica: {e}")),
        }
    }

    // Replica ≡ primary ≡ shadow, or the repeat measured a broken system.
    let primary = fx.primary.snapshot();
    out.fail(
        diff_blocks(&primary, tl.shadow(), list.block_size.bytes()),
        "primary blocks differ from the shadow image",
    );
    for replica in &fx.replicas {
        if !verify_consistent(&*fx.primary, &**replica).map_err(|e| e.to_string())? {
            out.fail(
                diff_blocks(&primary, &replica.snapshot(), list.block_size.bytes()).max(1),
                "replica blocks differ from the primary",
            );
        }
    }

    out.stalls_over_10ms = [&out.write_ns, &out.commit_ns, &out.read_ns]
        .iter()
        .map(|v| v.iter().filter(|&&ns| ns > STALL_NS).count() as u64)
        .sum();
    out.write_ns.sort_unstable();
    out.commit_ns.sort_unstable();
    out.read_ns.sort_unstable();
    Ok(out)
}

/// Nanoseconds per write of the driver's own content generator (the
/// XOR into the shadow), over one forward and one backward pass.
pub fn generator_ns_per_op(list: &OpList) -> f64 {
    let mut tl = TraceLoop::new(list);
    let n = 2 * list.ops.len();
    let started = Instant::now();
    for _ in 0..n {
        std::hint::black_box(tl.next_write());
    }
    started.elapsed().as_nanos() as f64 / n as f64
}
