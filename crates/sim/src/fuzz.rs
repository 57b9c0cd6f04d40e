//! Seeded scenario fuzzer: a `u64` seed deterministically expands into
//! a workload plus fault schedule, runs against a [`ShardWorld`] — one
//! replica group, or two for sharded cases — with the per-op and
//! post-quiescence invariants, and — on failure — greedy chunk removal
//! shrinks the schedule to a minimal reproducing trace.
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
//! epoch-guarded offload path and is checked against the freshness
//! oracle on the spot — an offloaded read that returns anything but the
//! owner's current block content fails the case immediately. A quarter
//! of all seeds additionally expand into *sharded* cases: two replica
//! groups behind a rendezvous placement, with a live migration of half
//! the volume started before the first op, advanced by interleaved
//! [`SimOp::MigrateStep`]s, and driven to cutover before quiescence —
//! so every fault in the schedule can land mid-copy or mid-cutover.

use std::time::Duration;

use prins_block::Lba;
use prins_cluster::{ClusterConfig, ReplicaState, ResyncStrategy};
use prins_net::Dir;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::world::ShardWorld;

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
    /// Epoch-guarded read through the cluster, checked on the spot
    /// against the freshness oracle: the returned block must equal the
    /// owner primary's current content, whether it was offloaded to a
    /// replica or served locally.
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
#[derive(Clone, Debug)]
pub struct FuzzCase {
    /// The seed it was generated from.
    pub seed: u64,
    /// Replica count (2 or 3).
    pub replicas: usize,
    /// Blocks per device.
    pub blocks: u64,
    /// Foreground ack window.
    pub ack_window: usize,
    /// Sharded topology: two rendezvous-placed replica groups with a
    /// live migration of the first half of the volume running across
    /// the whole schedule.
    pub sharded: bool,
    /// The schedule.
    pub ops: Vec<SimOp>,
}

/// Outcome of one case: the verdict plus the full deterministic event
/// trace (network trace + verdict line).
#[derive(Clone, Debug)]
pub struct RunReport {
    /// `Ok` or the first violated invariant.
    pub verdict: Result<(), String>,
    /// Byte-identical across runs of the same case.
    pub trace: String,
}

/// A failing seed with its shrunk schedule.
#[derive(Clone, Debug)]
pub struct FuzzFailure {
    /// The failing seed.
    pub seed: u64,
    /// The violated invariant.
    pub message: String,
    /// Greedily minimized schedule that still reproduces a failure.
    pub minimized: Vec<SimOp>,
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
    FuzzCase {
        seed,
        replicas,
        blocks,
        ack_window,
        sharded,
        ops,
    }
}

/// `link` indexes the flattened `groups × replicas` link matrix.
fn split(w: &ShardWorld, link: usize, replicas: usize) -> (usize, usize) {
    let groups = w.sharded().group_count();
    ((link / replicas) % groups, link % replicas)
}

/// Applies one op. Writes and reads route through the placement
/// (dual-dispatching into the migration target while a copy is live).
fn apply(w: &mut ShardWorld, op: SimOp, replicas: usize) -> Result<(), String> {
    let groups = w.sharded().group_count();
    let ctl = |link: usize| {
        let (g, r) = split(w, link, replicas);
        w.ctl(g, r)
    };
    match op {
        SimOp::Write { lba, tag } => {
            let _ = w.write_tag(lba, tag);
        }
        SimOp::Sever { link } => {
            let ctl = ctl(link);
            if ctl.is_up() {
                ctl.sever();
            }
        }
        SimOp::Restore { link } => {
            let ctl = ctl(link);
            if !ctl.is_up() {
                ctl.restore();
            }
        }
        SimOp::CorruptData { link, n } => ctl(link).corrupt_next(Dir::AtoB, n),
        SimOp::DropData { link, n } => ctl(link).drop_next(Dir::AtoB, n),
        SimOp::DropAcks { link, n } => ctl(link).drop_next(Dir::BtoA, n),
        SimOp::DupAck { link } => ctl(link).dup_next(Dir::BtoA, 1),
        SimOp::ReorderAcks { link } => ctl(link).reorder_next(Dir::BtoA),
        SimOp::Drain => {
            for g in 0..groups {
                w.group_mut(g).drain();
            }
        }
        SimOp::Rejoin { link } => {
            let (g, r) = split(w, link, replicas);
            if w.group(g).state(r) != ReplicaState::Online && w.ctl(g, r).is_up() {
                let group = w.group_mut(g);
                let _ = group.rejoin(r, ResyncStrategy::ParityLog);
                let _ = group.resync_step(r, 2);
            }
        }
        SimOp::Prune => {
            for g in 0..groups {
                let log = w.group(g).log();
                log.prune(log.current_seq());
            }
        }
        // The read oracle checks freshness inline: a stale offloaded
        // read fails the op itself, not just a later invariant sweep.
        SimOp::Read { lba } => {
            w.read_checked(lba)?;
        }
        // Copy failures here are transient (the cursor does not
        // advance past an unwritten block); real damage surfaces in
        // the historical check after the op.
        SimOp::MigrateStep => {
            if w.sharded().migration().is_some() {
                let _ = w.sharded_mut().migrate_step(2);
            }
        }
    }
    Ok(())
}

/// Runs one case to quiescence: the mid-run historical invariant after
/// every op, then heal + resync + the full invariant set.
///
/// A sharded case additionally starts a live migration of the volume's
/// first half before the first op and drives it to cutover before
/// quiescence, so every generated fault can land mid-copy; writes into
/// the migrating range dual-dispatch for the whole schedule and reads
/// stay under the freshness oracle throughout.
pub fn run_case(case: &FuzzCase) -> RunReport {
    let config = ClusterConfig {
        ack_timeout: Duration::from_millis(50),
        write_quorum: 0,
        offline_after: 2,
        ack_window: case.ack_window,
        ..Default::default()
    };
    let groups = if case.sharded { 2 } else { 1 };
    let slot = (case.blocks / 2).max(1);
    let mut w = ShardWorld::new(
        case.blocks,
        groups,
        case.replicas,
        config,
        Duration::from_micros(200),
        slot,
    );
    let mut verdict = Ok(());
    if case.sharded {
        let from = w.sharded().owner(Lba(0));
        verdict = w
            .sharded_mut()
            .migrate_start(0..slot, from, 1 - from)
            .map_err(|e| format!("migrate_start: {e}"));
    }
    if verdict.is_ok() {
        for (i, &op) in case.ops.iter().enumerate() {
            let step = apply(&mut w, op, case.replicas).and_then(|()| w.check_historical());
            if let Err(e) = step {
                verdict = Err(format!("after op {i} ({op:?}): {e}"));
                break;
            }
        }
    }
    // Drive the copy to cutover (faults may still be live — the copy
    // path degrades like any replicated write) before healing.
    while verdict.is_ok() && w.sharded().migration().is_some() {
        verdict = w
            .sharded_mut()
            .migrate_step(64)
            .map(|_| ())
            .map_err(|e| format!("migrate_step at quiescence: {e}"));
    }
    if verdict.is_ok() {
        verdict = w
            .quiesce(ResyncStrategy::ParityLog)
            .and_then(|()| w.check_invariants());
    }
    // Observability oracle: a single-group schedule that injected no
    // link faults must leave a quiet registry — any NAK, ack failure,
    // or lifecycle transition on a healthy network is a bug in the
    // stack (or in the instrumentation claiming one happened). Reads on
    // a healthy cluster are quiet too: they offload without a single
    // rejection.
    let fault_free = case.ops.iter().all(|op| {
        matches!(
            op,
            SimOp::Write { .. } | SimOp::Read { .. } | SimOp::Drain | SimOp::Prune
        )
    });
    if verdict.is_ok() && groups == 1 && fault_free {
        verdict = w.check_quiet_run();
    }
    let mut trace = w.net().trace().join("\n");
    trace.push_str("\nevents: ");
    trace.push_str(&w.registry().snapshot().event_summary_json());
    trace.push_str("\nverdict: ");
    match &verdict {
        Ok(()) => trace.push_str("ok"),
        Err(e) => trace.push_str(e),
    }
    RunReport { verdict, trace }
}

/// Expands and runs one seed.
pub fn run_seed(seed: u64) -> RunReport {
    run_case(&generate(seed))
}

/// Greedy chunk-removal shrink: repeatedly delete op ranges that keep
/// the case failing, halving the chunk size down to single ops.
pub fn minimize(case: &FuzzCase) -> FuzzCase {
    let still_fails = |ops: &[SimOp]| {
        let candidate = FuzzCase {
            ops: ops.to_vec(),
            ..case.clone()
        };
        run_case(&candidate).verdict.is_err()
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

/// Runs `seed`; on failure, shrinks the schedule and reports it.
///
/// # Errors
///
/// The violated invariant plus the minimized schedule.
pub fn fuzz_seed(seed: u64) -> Result<(), FuzzFailure> {
    let case = generate(seed);
    match run_case(&case).verdict {
        Ok(()) => Ok(()),
        Err(message) => {
            let minimized = minimize(&case);
            let message = run_case(&minimized).verdict.err().unwrap_or(message);
            Err(FuzzFailure {
                seed,
                message,
                minimized: minimized.ops,
            })
        }
    }
}
