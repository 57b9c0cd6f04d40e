//! Seeded scenario fuzzer: a `u64` seed deterministically expands into
//! a workload plus fault schedule, which plays on three topologies in
//! turn — its cluster topology (one replica group, or two for sharded
//! cases), then a stepped engine, then an erasure-coded group — each a
//! [`World`] with the per-op and post-quiescence invariants. On
//! failure, greedy chunk removal shrinks the schedule, replaying only
//! the topology that failed, to a minimal reproducing trace.
//!
//! Same seed, same binary → byte-identical event trace and verdict, so
//! a failing seed printed by CI replays exactly on a developer machine:
//!
//! ```text
//! cargo run -p prins-sim --bin sim-replay -- 0xdeadbeef
//! ```
//!
//! Generation is constrained to schedules the protocol *claims* to
//! survive:
//!
//! * Bit flips on data frames keep the ack stream aligned (the replica
//!   still answers, with `NAK_CORRUPT`), but are generated only for the
//!   same closed-loop, surplus-free schedules as silent data drops —
//!   the fuzzer itself proved both halves of that constraint. Inside a
//!   pipelined window a *later* same-LBA frame can be sent — and
//!   applied against a base missing the damaged frame's update — before
//!   the NAK is collected, transiently violating the per-op historical
//!   oracle (repaired as soon as the NAK surfaces). And a surplus
//!   duplicated ack credits the rejected frame outright, exactly as it
//!   would a silently dropped one. In the closed-loop, surplus-free
//!   regime the NAK lands before anything else is sent, so corruption
//!   is always detected before it can skew a base.
//! * Duplication and reordering are injected on the ack direction only
//!   — duplicating a PRINS data frame double-applies a parity; no
//!   storage protocol survives a network that rewrites payload
//!   streams.
//! * Silent *data*-frame drops are generated only for `ack_window == 1`
//!   schedules without duplicated acks. The harness itself proved the
//!   limitation (seeds minimize to three ops): acks carry no frame
//!   identity, so inside an optimistic window — or against a stray
//!   surplus ack — the FIFO credit stream shifts one ahead and the
//!   *next* ack silently credits the lost write. The deployed fault
//!   model is a reliable session (iSCSI over TCP) where loss surfaces
//!   as disconnection; severs model that and are generated freely, as
//!   are ack drops (the dropped ack's write was applied, so
//!   misattribution only shuffles credit among applied writes and the
//!   final timeout lands safely in the uncertain-dirty set).
//!
//! Reads ride in every schedule: each [`SimOp::Read`] goes through the
//! topology's read path and is checked against the freshness oracle on
//! the spot — an offloaded read that returns anything but the owner's
//! current block content fails the case immediately. A quarter of all
//! seeds expand into *sharded* cluster cases: two replica groups behind
//! a rendezvous placement, with a live migration of half the volume
//! started before the first op, advanced by interleaved
//! [`SimOp::MigrateStep`]s, and driven to cutover before quiescence —
//! so every fault in the schedule can land mid-copy or mid-cutover.
//!
//! The same schedule then plays on the other two systems, links taken
//! modulo their node count:
//!
//! * **Engine** — the case's replicas and ack window, plus its own
//!   batching draw. `Drain` is a flush (its error tolerated);
//!   `Rejoin`, `Prune` and `MigrateStep` are no-ops — the engine has
//!   no resync layer, parity log or second group. Writes queue between
//!   pipeline steps, so runs of them batch; the pipeline is stepped
//!   before every other op, so that op lands with their frames on the
//!   wire. The engine skips the ops that can lose a frame (a restore
//!   after a sever, a data drop, and — where bit flips are scheduled —
//!   a dropped or held-back NAK): a lane that lost a frame ships the
//!   block's next parity over the gap, and the engine has nothing that
//!   repairs a replica (see `loses_engine_frame`). At
//!   the end the engine flushes under the live faults and the links
//!   heal; a lane that failed stays behind for good, so only the lanes
//!   that never failed must be bit-identical.
//! * **EC** — `Sever` fails the node while fewer than `m` are down;
//!   `Restore` and `Rejoin` replace and rebuild a down node; `Read` is
//!   the decode oracle. Link drops, corruption, duplication and
//!   reordering are no-ops: `EcGroup` does not self-degrade — a strip
//!   whose ack fails surfaces as a write error and nothing marks the
//!   node down or repairs it — so it claims to survive node loss only.

use std::time::Duration;

use prins_block::Lba;
use prins_cluster::{ClusterConfig, ReplicaState};
use prins_net::Dir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::world::{Topology, World};

/// One step of a generated schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimOp {
    /// Foreground write of a deterministic block derived from
    /// `(lba, tag)`.
    Write {
        /// Target block.
        lba: u64,
        /// Content discriminator.
        tag: u8,
    },
    /// Cut a replica's link.
    Sever {
        /// Replica index.
        link: usize,
    },
    /// Bring a replica's link back.
    Restore {
        /// Replica index.
        link: usize,
    },
    /// Flip one bit in each of the next `n` data frames toward a
    /// replica. Unlike a drop, the damaged frame still arrives and
    /// still draws a response (`NAK_CORRUPT`), so the ack stream stays
    /// aligned — the seal must detect every flip and resync must
    /// repair it. Generated only at `ack_window == 1` (see the module
    /// docs for why pipelined windows can transiently skew a base).
    CorruptData {
        /// Replica index.
        link: usize,
        /// Frames to damage.
        n: u32,
    },
    /// Silently drop the next `n` data frames toward a replica.
    DropData {
        /// Replica index.
        link: usize,
        /// Frames to drop.
        n: u32,
    },
    /// Silently drop the next `n` acknowledgements from a replica.
    DropAcks {
        /// Replica index.
        link: usize,
        /// Frames to drop.
        n: u32,
    },
    /// Duplicate the next acknowledgement from a replica.
    DupAck {
        /// Replica index.
        link: usize,
    },
    /// Reorder the next two acknowledgements from a replica.
    ReorderAcks {
        /// Replica index.
        link: usize,
    },
    /// Collect all in-flight acknowledgements.
    Drain,
    /// Attempt a parity-log rejoin plus a bounded resync step.
    Rejoin {
        /// Replica index.
        link: usize,
    },
    /// Prune the primary's parity log up to the current sequence.
    Prune,
    /// Read checked on the spot against the freshness oracle: the
    /// returned block must equal the owner primary's current content,
    /// whether it was offloaded to a replica, served locally, or
    /// decoded off strips.
    Read {
        /// Target block.
        lba: u64,
    },
    /// Advance the live shard migration by a bounded batch. Generated
    /// only for sharded cases (a no-op on single-group cases, so
    /// minimization can still delete it freely).
    MigrateStep,
}

/// A fully expanded fuzz case: topology plus schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FuzzCase {
    /// The seed it was generated from.
    pub(crate) seed: u64,
    /// Replica count (2 or 3).
    pub(crate) replicas: usize,
    /// Blocks per device.
    pub(crate) blocks: u64,
    /// Foreground ack window.
    pub(crate) ack_window: usize,
    /// Sharded topology: two rendezvous-placed replica groups with a
    /// live migration of the first half of the volume running across
    /// the whole schedule.
    pub(crate) sharded: bool,
    /// The schedule.
    pub ops: Vec<SimOp>,
    /// The engine run's frames per wire message.
    pub(crate) batch_frames: usize,
}

/// Outcome of one case: the verdict plus the full deterministic event
/// trace (per topology: network trace, event summary, verdict line).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// `Ok` or the first violated invariant.
    pub verdict: Result<(), String>,
    /// Byte-identical across runs of the same case.
    pub trace: String,
}

/// Expands `seed` into a case. Deterministic: the schedule depends on
/// nothing but the seed.
pub fn generate(seed: u64) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed);
    let replicas = rng.random_range(2usize..=3);
    let blocks = 8u64;
    let ack_window = [1usize, 2, 4][rng.random_range(0usize..3)];
    // Silent data loss is only attributable with a closed-loop window
    // and a surplus-free ack stream (see module docs): such schedules
    // drop data frames but never duplicate acks; all others vice versa.
    let data_drops = ack_window == 1 && rng.random_bool(0.5);
    // A quarter of seeds run the sharded topology (two rendezvous
    // groups, live migration across the schedule); links then span
    // both groups.
    let sharded = rng.random_bool(0.25);
    let n_links = if sharded { 2 * replicas } else { replicas };
    let n_ops = rng.random_range(24usize..=64);
    let mut ops = Vec::with_capacity(n_ops);
    for _ in 0..n_ops {
        let link = rng.random_range(0usize..n_links);
        let roll = rng.random_range(0u32..100);
        ops.push(match roll {
            0..=41 => SimOp::Write {
                lba: rng.random_range(0..blocks),
                tag: rng.random_range(0u32..=255) as u8,
            },
            42..=49 => SimOp::Read {
                lba: rng.random_range(0..blocks),
            },
            // Bit flips keep FIFO credit aligned (the damaged frame
            // still draws a NAK_CORRUPT) but need the closed-loop,
            // surplus-free schedules — see the module docs.
            50..=54 => {
                let n = rng.random_range(1u32..=2);
                if data_drops {
                    SimOp::CorruptData { link, n }
                } else {
                    SimOp::DropAcks { link, n }
                }
            }
            55..=62 => SimOp::Sever { link },
            63..=72 => SimOp::Restore { link },
            73..=78 => {
                let n = rng.random_range(1u32..=2);
                if data_drops {
                    SimOp::DropData { link, n }
                } else {
                    SimOp::DropAcks { link, n }
                }
            }
            79..=84 => SimOp::DropAcks {
                link,
                n: rng.random_range(1u32..=2),
            },
            85..=88 => {
                if data_drops {
                    SimOp::ReorderAcks { link }
                } else {
                    SimOp::DupAck { link }
                }
            }
            89..=91 => SimOp::ReorderAcks { link },
            92..=94 => SimOp::Drain,
            95..=97 => SimOp::Rejoin { link },
            98 if sharded => SimOp::MigrateStep,
            _ => SimOp::Prune,
        });
    }
    // The engine's knobs come last, so every earlier draw — and with it
    // the cluster case each seed has always expanded to — is unchanged.
    let batch_frames = [1usize, 2, 4][rng.random_range(0usize..3)];
    FuzzCase {
        seed,
        replicas,
        blocks,
        ack_window,
        sharded,
        ops,
        batch_frames,
    }
}

/// The topologies a case plays on, in order, each with its trace name.
fn topologies(case: &FuzzCase) -> [(&'static str, Topology); 3] {
    let config = ClusterConfig {
        ack_timeout: Duration::from_millis(50),
        write_quorum: 0,
        offline_after: 2,
        ack_window: case.ack_window,
    };
    let cluster = Topology::Cluster {
        blocks: case.blocks,
        groups: if case.sharded { 2 } else { 1 },
        replicas: case.replicas,
        config,
        slot_blocks: (case.blocks / 2).max(1),
    };
    let engine = Topology::Engine {
        replicas: case.replicas,
        batch_frames: case.batch_frames,
        ack_window: case.ack_window,
        adaptive: false,
    };
    [
        ("cluster", cluster),
        ("engine", engine),
        ("ec", Topology::Ec),
    ]
}

/// Applies one op to `w`, built from `topology`. Writes and reads route
/// through the topology's own path (on a sharded cluster, through the
/// placement, dual-dispatching into the migration target while a copy
/// is live).
fn apply(w: &mut World, topology: &Topology, op: SimOp) -> Result<(), String> {
    let links = w.links();
    let node = |link: usize| link % links;
    match (topology, op) {
        (_, SimOp::Write { lba, tag }) => {
            let _ = w.write_tag(lba, tag);
        }
        // The read oracle checks freshness inline: a stale read fails
        // the op itself, not just a later invariant sweep.
        (_, SimOp::Read { lba }) => w.read_checked(lba)?,
        (_, SimOp::Drain) => {
            let _ = w.barrier();
        }
        (Topology::Ec, SimOp::Sever { link }) => {
            let down = (0..links).filter(|&n| !w.ctl(n).is_up()).count();
            if w.ctl(node(link)).is_up() && down < w.ec().placement().m {
                w.fail_node(node(link)).map_err(|e| e.to_string())?;
            }
        }
        (Topology::Ec, SimOp::Restore { link } | SimOp::Rejoin { link }) => {
            if !w.ctl(node(link)).is_up() {
                w.replace_and_rebuild(node(link))?;
            }
        }
        // The EC group claims to survive node loss only (module docs).
        (Topology::Ec, _) => {}
        (_, SimOp::Sever { link }) if w.ctl(node(link)).is_up() => w.ctl(node(link)).sever(),
        (_, SimOp::Restore { link }) if !w.ctl(node(link)).is_up() => w.ctl(node(link)).restore(),
        (_, SimOp::Sever { .. } | SimOp::Restore { .. }) => {}
        (_, SimOp::CorruptData { link, n }) => w.ctl(node(link)).corrupt_next(Dir::AtoB, n),
        (_, SimOp::DropData { link, n }) => w.ctl(node(link)).drop_next(Dir::AtoB, n),
        (_, SimOp::DropAcks { link, n }) => w.ctl(node(link)).drop_next(Dir::BtoA, n),
        (_, SimOp::DupAck { link }) => w.ctl(node(link)).dup_next(Dir::BtoA, 1),
        (_, SimOp::ReorderAcks { link }) => w.ctl(node(link)).reorder_next(Dir::BtoA),
        (Topology::Cluster { replicas, .. }, SimOp::Rejoin { link }) => {
            let (g, r) = (link / replicas, link % replicas);
            if w.group(g).state(r) != ReplicaState::Online && w.ctl(link).is_up() {
                let group = w.group_mut(g);
                let _ = group.rejoin(r);
                let _ = group.resync_step(r, 2);
            }
        }
        (Topology::Cluster { groups, .. }, SimOp::Prune) => {
            for g in 0..*groups {
                let log = w.group(g).log();
                log.prune(log.current_seq());
            }
        }
        // Copy failures here are transient (the cursor does not
        // advance past an unwritten block); real damage surfaces in
        // the historical check after the op.
        (Topology::Cluster { .. }, SimOp::MigrateStep) => {
            if w.sharded().migrating() {
                let _ = w.sharded_mut().migrate_step(2);
            }
        }
        (Topology::Engine { .. }, SimOp::Rejoin { .. } | SimOp::Prune | SimOp::MigrateStep) => {}
    }
    Ok(())
}

/// Whether `op` can make an engine lane lose a frame, in a schedule
/// that does (`corrupts`) or does not flip data bits. A lane that lost
/// a frame sends the block's next parity over the gap: seeds 0x89
/// (sever, write, restore, write), 0x2a (drop, write, write) and 0x1b1
/// (ack drop, bit flip, write, write — the NAK never arrives, so
/// nothing is retransmitted) minimize to a replica block the primary
/// never held. Until lanes track uncertain blocks (ROADMAP), the engine
/// skips these ops: a severed link stays down to the end, no data frame
/// is dropped, and where frames are damaged no NAK is lost or held.
fn loses_engine_frame(op: SimOp, corrupts: bool) -> bool {
    match op {
        SimOp::Restore { .. } | SimOp::DropData { .. } => true,
        SimOp::DropAcks { .. } | SimOp::ReorderAcks { .. } => corrupts,
        _ => false,
    }
}

/// Plays `case` on `topology` to quiescence: the mid-run historical
/// invariant after every op, then heal + converge + the full invariant
/// set.
///
/// A sharded cluster additionally starts a live migration of the
/// volume's first half before the first op and drives it to cutover
/// before quiescence, so every generated fault can land mid-copy;
/// writes into the migrating range dual-dispatch for the whole schedule
/// and reads stay under the freshness oracle throughout.
fn play(case: &FuzzCase, topology: Topology) -> RunReport {
    let mut w = World::new(topology);
    let mut verdict = Ok(());
    if let Topology::Cluster {
        groups: 2,
        slot_blocks,
        ..
    } = topology
    {
        let from = w.sharded().owner(Lba(0));
        verdict = w
            .sharded_mut()
            .migrate_start(0..slot_blocks, from, 1 - from)
            .map_err(|e| format!("migrate_start: {e}"));
    }
    let engine = matches!(topology, Topology::Engine { .. });
    let corrupts = case
        .ops
        .iter()
        .any(|op| matches!(op, SimOp::CorruptData { .. }));
    if verdict.is_ok() {
        for (i, &op) in case.ops.iter().enumerate() {
            // Writes queue in the engine between steps, so runs of them
            // batch; every other op lands with their frames on the wire.
            if engine && !matches!(op, SimOp::Write { .. }) {
                w.engine().step();
            }
            let step = if engine && loses_engine_frame(op, corrupts) {
                Ok(())
            } else {
                apply(&mut w, &topology, op)
            };
            let step = step.and_then(|()| w.check_historical());
            if let Err(e) = step {
                verdict = Err(format!("after op {i} ({op:?}): {e}"));
                break;
            }
        }
    }
    // Drive the copy to cutover (faults may still be live — the copy
    // path degrades like any replicated write) before healing.
    let cluster = matches!(topology, Topology::Cluster { .. });
    while verdict.is_ok() && cluster && w.sharded().migrating() {
        verdict = w
            .sharded_mut()
            .migrate_step(64)
            .map(|_| ())
            .map_err(|e| format!("migrate_step at quiescence: {e}"));
    }
    // Healthy links make a quiet registry part of the invariant set: a
    // schedule that injected no link fault must record no NAK, ack
    // failure or lifecycle transition (reads on a healthy cluster
    // offload without a single rejection).
    if verdict.is_ok() {
        verdict = w.quiesce().and_then(|()| w.check_invariants());
    }
    let trace = format!(
        "{}\nevents: {}\nverdict: {}",
        w.net().trace().join("\n"),
        w.registry().snapshot().event_summary_json(),
        verdict.as_ref().err().map_or("ok", String::as_str)
    );
    RunReport { verdict, trace }
}

/// Runs one case on each of its topologies in turn, stopping at the
/// first that fails; the verdict names it.
pub fn run_case(case: &FuzzCase) -> RunReport {
    let mut report = RunReport {
        verdict: Ok(()),
        trace: String::new(),
    };
    for (name, topology) in topologies(case) {
        let run = play(case, topology);
        report
            .trace
            .push_str(&format!("topology: {name}\n{}\n", run.trace));
        if let Err(e) = run.verdict {
            report.verdict = Err(format!("{name}: {e}"));
            break;
        }
    }
    report
}

/// Greedy chunk-removal shrink: repeatedly delete op ranges that keep
/// the case failing, halving the chunk size down to single ops. Only
/// the first topology the case fails on is replayed.
pub fn minimize(case: &FuzzCase) -> FuzzCase {
    let failing = topologies(case)
        .into_iter()
        .find(|&(_, topology)| play(case, topology).verdict.is_err());
    let Some((_, topology)) = failing else {
        return case.clone();
    };
    let still_fails = |ops: &[SimOp]| {
        let candidate = FuzzCase {
            ops: ops.to_vec(),
            ..case.clone()
        };
        play(&candidate, topology).verdict.is_err()
    };
    let mut ops = case.ops.clone();
    let mut chunk = (ops.len() / 2).max(1);
    loop {
        let mut i = 0;
        while i < ops.len() {
            let mut candidate = ops.clone();
            candidate.drain(i..(i + chunk).min(candidate.len()));
            if still_fails(&candidate) {
                ops = candidate;
            } else {
                i += chunk;
            }
        }
        if chunk == 1 {
            break;
        }
        chunk /= 2;
    }
    FuzzCase {
        ops,
        ..case.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::world::content_hash;

    /// Each seed's case, minus the engine knobs appended after the
    /// cluster draws, hashes to what it did before they were added: the
    /// RNG stream the cluster case is drawn from is unchanged, so the
    /// corpus still covers what its comments say.
    #[test]
    fn seed_expansion_keeps_the_cluster_draws() {
        for (seed, want) in [
            (0xc0ffee, 0xd920_5494_0ae4_f6fd),
            (0x4b77_ec2d_49c8_727c, 0x6f32_9c0f_67e3_07d4),
            (0xe9af_65e6_c912_ee91, 0xc67f_4f71_24cb_fd23),
            (0xba84_168f_ed71_ee23, 0x0b0e_940f_0837_2d2c),
        ] {
            let case = generate(seed);
            let appended = format!(", batch_frames: {} }}", case.batch_frames);
            let debug = format!("{case:?}");
            let head = debug
                .strip_suffix(&appended)
                .expect("the engine knobs are the last fields");
            let hash = content_hash(format!("{head} }}").as_bytes());
            assert_eq!(hash, want, "seed {seed:#x}");
        }
    }
}
