//! Named fault scenarios: scripted schedules over the simulation
//! world, each ending in quiescence and the full invariant set.
//!
//! Every scenario is a plain function returning the run's deterministic
//! event-count summary (the `sim-replay --events` golden) and trace
//! summary (the `--traces` golden) or a description of the violated
//! invariant; the [`SCENARIOS`] table maps names to functions for the
//! test suite and the `sim-replay` binary.

use std::time::Duration;

use prins_block::{BlockDevice, Lba};
use prins_cluster::{ClusterConfig, ClusterError, ReplicaState};
use prins_net::Dir;

use crate::world::{Topology, World};

/// What a scenario run leaves behind: the deterministic event-count
/// summary (the `sim-replay --events` golden) and the trace-summary
/// JSON from the world's trace sink (the `--traces` golden).
#[derive(Clone, Debug)]
pub struct ScenarioOutcome {
    /// Sorted event-kind → count JSON from the registry's event ring.
    pub events: String,
    /// One-line trace summary JSON from the world's
    /// [`TraceSink`](prins_obs::TraceSink).
    pub traces: String,
}

impl ScenarioOutcome {
    fn collect(w: &World) -> Self {
        Self {
            events: w.registry().snapshot().event_summary_json(),
            traces: w.trace_sink().summary_json(),
        }
    }
}

/// Heals, converges and checks the full invariant set, then collects
/// the run's summaries.
fn settle(w: &mut World) -> Result<ScenarioOutcome, String> {
    w.quiesce()?;
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(w))
}

fn cluster_config(ack_window: usize, write_quorum: usize) -> ClusterConfig {
    ClusterConfig {
        // Virtual milliseconds: generous against µs link delays, free
        // against the wall clock.
        ack_timeout: Duration::from_millis(50),
        write_quorum,
        offline_after: 2,
        ack_window,
    }
}

/// A plain replicated cluster — the one-group case of the cluster
/// topology: 16 blocks.
fn one_group(replicas: usize, config: ClusterConfig) -> World {
    World::new(Topology::Cluster {
        blocks: 16,
        groups: 1,
        replicas,
        config,
        slot_blocks: 1,
    })
}

/// A stepped engine over two replicas, batching off.
fn engine(ack_window: usize, adaptive: bool) -> World {
    World::new(Topology::Engine {
        replicas: 2,
        batch_frames: 1,
        ack_window,
        adaptive,
    })
}

/// A link repeatedly drops and recovers while writes keep flowing; the
/// flapping replica degrades, misses writes, and must delta-resync back
/// to bit-identity.
pub(crate) fn link_flap() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    let mut tag = 0u8;
    for flap in 0..4 {
        for i in 0..6 {
            tag = tag.wrapping_add(1);
            w.write_tag((flap * 3 + i) % 16, tag).map_err(op_err)?;
        }
        w.ctl(0).sever();
        for i in 0..6 {
            tag = tag.wrapping_add(1);
            w.write_tag((flap * 5 + i) % 16, tag).map_err(op_err)?;
        }
        w.check_historical()?;
        w.ctl(0).restore();
        settle(&mut w)?;
    }
    Ok(ScenarioOutcome::collect(&w))
}

/// The replica's link dies *while a parity-log resync is replaying*:
/// already-sent but unacknowledged resync frames must be re-marked
/// uncertain, and the second resync must fall back to full images for
/// them instead of double-applying parity chains.
pub(crate) fn crash_mid_resync() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    // Miss a batch of writes while offline.
    w.ctl(0).sever();
    for lba in 0..8 {
        w.write_tag(lba, 2).map_err(op_err)?;
        w.write_tag(lba, 3).map_err(op_err)?;
    }
    w.ctl(0).restore();
    // Start a resync, then kill the link partway: ack collection for
    // the in-flight batch fails and aborts the resync.
    w.group_mut(0).rejoin(0).map_err(op_err)?;
    let _ = w.group_mut(0).resync_step(0, 3);
    w.ctl(0).sever();
    let _ = w.group_mut(0).resync_step(0, 3);
    if w.group(0).state(0) == ReplicaState::Online {
        return Err("resync reported completion across a dead link".into());
    }
    w.check_historical()?;
    w.ctl(0).restore();
    settle(&mut w)
}

/// Acknowledgements come back out of order (and one pair of
/// distinct-LBA data frames swaps on the wire); per-LBA apply order and
/// final bit-identity must survive.
pub(crate) fn reorder() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(4, 0));
    w.ctl(0).reorder_next(Dir::BtoA);
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.group_mut(0).drain();
    // Swap two data frames going to distinct blocks: they commute.
    w.ctl(0).reorder_next(Dir::AtoB);
    w.write_tag(10, 2).map_err(op_err)?;
    w.write_tag(11, 2).map_err(op_err)?;
    w.group_mut(0).drain();
    settle(&mut w)
}

/// An acknowledgement is duplicated on the wire. The ack-stream
/// alignment logic must absorb the stray ack without crediting a write
/// that was never applied.
pub(crate) fn dup() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(2, 0));
    w.ctl(0).dup_next(Dir::BtoA, 1);
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.group_mut(0).drain();
    settle(&mut w)
}

/// A high-latency, per-byte-priced WAN link: correctness is unchanged
/// and the virtual clock (not the wall clock) pays for the distance.
pub(crate) fn slow_wan() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(4, 0));
    w.ctl(0).set_delay(
        Dir::AtoB,
        Duration::from_millis(10),
        Duration::from_millis(1),
    );
    w.ctl(0)
        .set_delay(Dir::BtoA, Duration::from_millis(10), Duration::ZERO);
    for round in 0..4u8 {
        for lba in 0..8 {
            w.write_tag(lba, round + 1).map_err(op_err)?;
        }
    }
    w.group_mut(0).drain();
    let now = w.net().clock().now();
    if now < 20_000_000 {
        return Err(format!("WAN round-trips cost only {now} virtual ns"));
    }
    settle(&mut w)
}

/// Every replica link dies under a `write_quorum` of 2: writes must
/// fail with `QuorumLost` (while still landing on the primary), and the
/// cluster must recover to bit-identity once links return.
pub(crate) fn quorum_loss() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 2));
    for lba in 0..4 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.ctl(0).sever();
    w.ctl(1).sever();
    let mut quorum_losses = 0;
    for lba in 0..4 {
        match w.write_tag(lba, 2) {
            Err(ClusterError::QuorumLost { .. }) => quorum_losses += 1,
            Ok(_) => {}
            Err(e) => return Err(format!("unexpected write error: {e}")),
        }
    }
    if quorum_losses == 0 {
        return Err("no write reported quorum loss with every link dead".into());
    }
    w.check_historical()?;
    settle(&mut w)
}

/// Engine pipeline: a hot-block stream with frames in flight, then a
/// link dies mid-stream ("crash"). The flush must report the failure,
/// surviving replicas must be bit-identical, and the dead replica must
/// hold a historical prefix — never a torn or double-applied state.
pub(crate) fn crash_with_frames_in_flight() -> Result<ScenarioOutcome, String> {
    let mut w = engine(8, false);
    // Hot blocks: many same-LBA writes queued while frames are in flight.
    for round in 0..10u8 {
        for lba in 0..4 {
            w.write_tag(lba, round).map_err(op_err)?;
        }
    }
    w.engine().step();
    w.ctl(0).sever();
    for round in 10..20u8 {
        for lba in 0..4 {
            w.write_tag(lba, round).map_err(op_err)?;
        }
    }
    if w.barrier().is_ok() {
        return Err("flush succeeded across a severed link".into());
    }
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(&w))
}

/// The primary prunes its parity log past a lagging replica's first
/// miss; a parity-log rejoin must detect the gap and fall back to full
/// block images instead of replaying a truncated chain.
pub(crate) fn prune_then_rejoin() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.ctl(0).sever();
    for lba in 0..8 {
        w.write_tag(lba, 2).map_err(op_err)?;
    }
    // Prune the whole log: the replica's chain suffix is gone.
    let log = w.group(0).log();
    log.prune(log.current_seq());
    w.ctl(0).restore();
    let outcome = settle(&mut w)?;
    if w.group(0).status(0).resync_bytes == 0 {
        return Err("pruned-log rejoin shipped no resync bytes".into());
    }
    Ok(outcome)
}

/// Engine pipeline: `flush()` is called while a replica link is down.
/// The barrier must complete (not hang), report the lane failure, and
/// leave the surviving replica bit-identical after a second, clean
/// flush.
pub(crate) fn flush_during_link_failure() -> Result<ScenarioOutcome, String> {
    let mut w = engine(4, false);
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.barrier()?;
    w.check_invariants()?;
    w.ctl(0).sever();
    for lba in 0..8 {
        w.write_tag(lba, 2).map_err(op_err)?;
    }
    if w.barrier().is_ok() {
        return Err("flush succeeded across a severed link".into());
    }
    w.check_invariants()?;
    // The other replica kept receiving: a fresh write + flush round
    // must still fail (lane 0 is dead for good) but replica 1 tracks.
    w.write_tag(3, 3).map_err(op_err)?;
    let _ = w.barrier();
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(&w))
}

/// One frame of a second write to block 5 is lost toward `dir`; the
/// ack wait times out, replica 0 degrades, and resync must restore
/// bit-identity without ever leaving the historical set.
fn lose_one_frame(dir: Dir) -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    w.write_tag(5, 1).map_err(op_err)?;
    w.ctl(0).drop_next(dir, 1);
    let _ = w.write_tag(5, 2);
    w.check_historical()?;
    settle(&mut w)
}

/// A data frame is silently dropped by the network (the sender's
/// `send()` succeeds). The lost acknowledgement times out, the block is
/// marked *uncertain*-dirty, and the delta resync must ship a full
/// image — a parity replay could not know whether the frame arrived.
pub(crate) fn drop_data_frame() -> Result<ScenarioOutcome, String> {
    lose_one_frame(Dir::AtoB)
}

/// The mirror image of [`drop_data_frame`]: the frame arrives and is
/// applied, but its *acknowledgement* is dropped. The primary cannot
/// distinguish the two cases; replaying the parity chain here would XOR
/// the parity in twice. The uncertain-dirty fallback must keep the
/// replica on a historical state.
pub(crate) fn lost_ack_resync() -> Result<ScenarioOutcome, String> {
    lose_one_frame(Dir::BtoA)
}

/// A data frame takes a bit flip on the wire. The seal's CRC32C catches
/// it at the replica (`NAK_CORRUPT`), the block goes uncertain-dirty,
/// and resync restores bit-identity — the corruption is *detected*,
/// never silently applied as a garbage XOR base.
pub(crate) fn corruption_wire_flip() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.ctl(0).corrupt_next(Dir::AtoB, 1);
    let _ = w.write_tag(5, 2); // damaged in flight; replica 0 rejects it
    w.check_historical()?;
    let outcome = settle(&mut w)?;
    if w.registry().snapshot().counters["checksum_failures"] == 0 {
        return Err("wire bit flip produced no detected checksum failure".into());
    }
    Ok(outcome)
}

/// Bit flips land on the wire *and* on a replica's disk. The wire flip
/// is caught by the frame seal; the media flip — invisible to any wire
/// checksum — is caught by the scrubber's read-back digest probes and
/// repaired through resync. The history oracle proves the corruption
/// was never laundered into a "valid" state.
pub(crate) fn corruption_scrub_repair() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(2, cluster_config(1, 0));
    for lba in 0..8 {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    // Wire fault: one damaged data frame, detected and resynced.
    w.ctl(0).corrupt_next(Dir::AtoB, 1);
    let _ = w.write_tag(3, 2);
    w.quiesce()?;

    // Media fault: flip one bit on replica 0's disk behind the wire.
    let dev = w.replica_dev(0);
    let victim = prins_block::Lba(6);
    let mut block = dev.read_block_vec(victim).map_err(op_err)?;
    block[11] ^= 0x08;
    dev.write_block(victim, &block).map_err(op_err)?;

    let outcomes = w.group_mut(0).scrub(0, 1).map_err(op_err)?;
    let repaired: usize = outcomes.iter().map(|(_, o)| o.repaired).sum();
    if repaired == 0 {
        return Err("scrub found nothing to repair after a disk bit flip".into());
    }
    w.net().run_until_idle();
    let outcome = settle(&mut w)?;
    let snap = w.registry().snapshot();
    if snap.counters["checksum_failures"] == 0 {
        return Err("no detected checksum failure".into());
    }
    if snap.counters["scrub_repairs"] == 0 {
        return Err("no scrub repair recorded".into());
    }
    Ok(outcome)
}

/// Engine pipeline: three bit flips land on the same frame (the first
/// copy and two retransmissions). The lane's bounded retransmit absorbs
/// all of them — the flush *succeeds*, replicas end bit-identical, and
/// the counters show the corruption was detected, not ignored.
pub(crate) fn corruption_wire_retransmit() -> Result<ScenarioOutcome, String> {
    // Closed-loop window: retransmission is only attempted when the
    // damaged frame is the sole in-flight one.
    let mut w = engine(1, false);
    w.ctl(0).corrupt_next(Dir::AtoB, 3);
    for round in 0..3u8 {
        for lba in 0..8 {
            w.write_tag(lba, round + 1).map_err(op_err)?;
        }
    }
    w.barrier()
        .map_err(|e| format!("retransmission should absorb wire corruption: {e}"))?;
    w.check_invariants()?;
    let snap = w.registry().snapshot();
    if snap.counters["checksum_failures"] == 0 {
        return Err("no detected checksum failure".into());
    }
    if snap.counters["retransmits"] == 0 {
        return Err("no retransmission recorded".into());
    }
    Ok(ScenarioOutcome::collect(&w))
}

/// Checks one rebuild report against the repair-bandwidth bound: wire
/// bytes at most `1.25×` the survivors' dense image bytes (k strip
/// reads plus one sparse shipment per stripe, never n full images).
fn check_rebuild_bound(who: &str, report: &prins_cluster::EcRebuildReport) -> Result<(), String> {
    if report.wire_bytes as f64 > 1.25 * report.survivor_image_bytes as f64 {
        return Err(format!(
            "{who}: rebuild moved {} wire bytes against {} survivor image bytes \
             — repair-bandwidth bound (1.25×) violated",
            report.wire_bytes, report.survivor_image_bytes
        ));
    }
    Ok(())
}

/// An erasure-coded group loses one strip-holding node mid-workload.
/// Writes continue degraded (the dead node's strips go stale), a fresh
/// replacement is rebuilt from exactly `k` survivors within the
/// repair-bandwidth bound, and afterwards every strip again equals the
/// systematic encoding of the logical image — with every decoded block
/// a state the history oracle has seen.
pub(crate) fn ec_rebuild_one() -> Result<ScenarioOutcome, String> {
    let mut w = World::new(Topology::Ec);
    let blocks = w.blocks();
    for lba in 0..blocks {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    w.check_historical()?;

    let lost = 2;
    w.fail_node(lost).map_err(op_err)?;
    let mut skipped = 0;
    for lba in 0..blocks {
        skipped += w.write_tag(lba, 2).map_err(op_err)?;
    }
    if skipped == 0 {
        return Err("degraded writes skipped no frames with a node down".into());
    }
    if w.ec().dirty_stripes() == 0 {
        return Err("degraded writes marked no stripes dirty".into());
    }
    // Degraded reads reconstruct the missing column off k survivors.
    w.check_invariants()?;

    let report = w.replace_and_rebuild(lost)?;
    if report.stripes != w.ec().stripes() {
        return Err(format!(
            "rebuild covered {} of {} stripes",
            report.stripes,
            w.ec().stripes()
        ));
    }
    if w.ec().dirty_stripes() != 0 {
        return Err("rebuild left dirty stripes on a fully-online group".into());
    }
    check_rebuild_bound("single rebuild", &report)?;
    w.check_invariants()?;
    // Post-rebuild writes flow to all n nodes again.
    for lba in 0..blocks {
        if w.write_tag(lba, 3).map_err(op_err)? != 0 {
            return Err("write skipped a node after rebuild completed".into());
        }
    }
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(&w))
}

/// Two strip-holding nodes die — the full `m = 2` fault tolerance of
/// the code. Degraded decode still recovers every logical block; the
/// first rebuild runs with the other node still down (exactly `k`
/// survivors reachable, stale strips excluded), the second restores
/// full health, and both stay within the repair-bandwidth bound.
pub(crate) fn ec_rebuild_two() -> Result<ScenarioOutcome, String> {
    let mut w = World::new(Topology::Ec);
    let blocks = w.blocks();
    for lba in 0..blocks {
        w.write_tag(lba, 1).map_err(op_err)?;
    }
    let (first, second) = (1, 4);
    w.fail_node(first).map_err(op_err)?;
    w.fail_node(second).map_err(op_err)?;
    for lba in 0..blocks {
        w.write_tag(lba, 2).map_err(op_err)?;
    }
    // Both erasures outstanding: decode leans on the full code.
    w.check_invariants()?;

    let r1 = w.replace_and_rebuild(first)?;
    check_rebuild_bound("first rebuild", &r1)?;
    if w.ec().dirty_stripes() == 0 {
        return Err("dirty stripes forgotten while a node is still down".into());
    }
    w.check_invariants()?;

    let r2 = w.replace_and_rebuild(second)?;
    check_rebuild_bound("second rebuild", &r2)?;
    if w.ec().dirty_stripes() != 0 {
        return Err("rebuild left dirty stripes on a fully-online group".into());
    }
    w.check_invariants()?;
    for lba in 0..blocks {
        w.write_tag(lba, 3).map_err(op_err)?;
    }
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(&w))
}

/// A live shard migration runs to cutover while the source group's
/// link crawls at 10× its normal delay, foreground writes keep landing
/// in the moving range, offloaded reads keep being served, and one of
/// the target group's replicas is killed mid-copy. The history oracle
/// must hold throughout: no offloaded read observes stale content, and
/// the cutover leaves the range owned by the target with every replica
/// of every group on a historical state.
pub(crate) fn migrate_under_faults() -> Result<ScenarioOutcome, String> {
    // 16 blocks in 8-block slots: each slot's run shares an owner, so
    // a contiguous range is available to migrate.
    let mut w = World::new(Topology::Cluster {
        blocks: 16,
        groups: 2,
        replicas: 2,
        config: cluster_config(1, 0),
        slot_blocks: 8,
    });
    let mut tag = 0u8;
    for lba in 0..16 {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).map_err(op_err)?;
    }
    let from = w.sharded().owner(Lba(0));
    let to = 1 - from;

    // The source group's first link crawls: in-flight acks lag the
    // copy, exercising the epoch guard at cutover.
    let crawl = w.ctl(2 * from);
    crawl.set_delay(
        Dir::AtoB,
        Duration::from_millis(2),
        Duration::from_micros(200),
    );
    crawl.set_delay(Dir::BtoA, Duration::from_millis(2), Duration::ZERO);

    w.sharded_mut()
        .migrate_start(0..8, from, to)
        .map_err(op_err)?;
    let mut killed = false;
    loop {
        let remaining = w.sharded_mut().migrate_step(2).map_err(op_err)?;
        // Foreground writes into the moving range between copy steps
        // (dual-dispatched until cutover), plus checked reads.
        tag = tag.wrapping_add(1);
        w.write_tag(remaining % 8, tag).map_err(op_err)?;
        w.read_checked(remaining % 8)?;
        w.check_historical()?;
        if !killed && remaining <= 4 {
            // Node kill mid-copy: one of the target group's replicas
            // dies; the copy must keep going (write quorum 0).
            w.ctl(2 * to + 1).sever();
            killed = true;
        }
        if remaining == 0 {
            break;
        }
    }
    if w.sharded().migrating() {
        return Err("migration still pending after the copy drained".into());
    }
    for lba in 0..8 {
        if w.sharded().owner(Lba(lba)) != to {
            return Err(format!("block {lba} not owned by group {to} after cutover"));
        }
    }
    // Post-cutover traffic routes to the new owner; reads stay fresh.
    for lba in 0..8 {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).map_err(op_err)?;
        w.read_checked(lba)?;
    }
    let outcome = settle(&mut w)?;
    if w.registry().snapshot().counters["migration_bytes"] == 0 {
        return Err("live migration booked no migration bytes".into());
    }
    Ok(outcome)
}

/// Offloaded reads race a replica outage and rejoin: while the replica
/// is lagging, offline, or still resyncing, the freshness guard must
/// reject it as a read source (`read_rejected_stale`), and no read may
/// ever return pre-rejoin bytes — the oracle checks every single read.
pub(crate) fn read_offload_rejoin() -> Result<ScenarioOutcome, String> {
    let mut w = one_group(3, cluster_config(1, 0));
    let mut tag = 0u8;
    for lba in 0..16 {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).map_err(op_err)?;
    }
    // Healthy: reads spread over all three replicas.
    for lba in 0..16 {
        w.read_checked(lba)?;
    }
    let snap = w.registry().snapshot();
    if snap.counters["reads_offloaded"] != 16 {
        return Err(format!(
            "healthy cluster offloaded {} of 16 reads",
            snap.counters["reads_offloaded"]
        ));
    }

    // Replica 0 dies and misses writes; reads keep flowing and must
    // never be served its stale copy.
    w.ctl(0).sever();
    for lba in 0..16 {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).map_err(op_err)?;
        w.read_checked(lba)?;
    }
    w.check_historical()?;

    // Rejoin races the read stream: reads issued mid-resync must skip
    // the still-catching-up replica.
    w.ctl(0).restore();
    w.group_mut(0).rejoin(0).map_err(op_err)?;
    loop {
        let remaining = w.group_mut(0).resync_step(0, 2).map_err(op_err)?;
        tag = tag.wrapping_add(1);
        w.write_tag(u64::from(tag) % 16, tag).map_err(op_err)?;
        w.read_checked(u64::from(tag) % 16)?;
        if remaining == 0 {
            break;
        }
    }
    settle(&mut w)?;
    // Back online: the rejoined replica serves again.
    for lba in 0..16 {
        w.read_checked(lba)?;
    }
    let snap = w.registry().snapshot();
    if snap.counters["read_rejected_stale"] == 0 {
        return Err("outage and rejoin produced no guard rejections".into());
    }
    Ok(ScenarioOutcome::collect(&w))
}

/// The adaptive policy engine rides the foreground pipeline through a
/// workload phase change: an OLTP-shaped small-delta stream (parity
/// picks) flips into incompressible churn (full-image picks).
/// Decisions must track each phase's shape, counterfactual accounting
/// must stay sane (regret a small fraction of shipped bytes), and the
/// ordinary engine invariant set — bit-identity after a clean flush,
/// per-LBA order, byte conservation, obs cross-checks — must hold with
/// the policy engine driving encoding.
pub(crate) fn adaptive_phase_shift() -> Result<ScenarioOutcome, String> {
    let mut w = engine(8, true);
    // Small-delta phase: 192 writes of ~2-byte deltas.
    for round in 0..24u8 {
        for lba in 0..8 {
            w.write_tag(lba, round + 1).map_err(op_err)?;
        }
    }
    w.barrier()?;
    {
        let policy = w.engine().adaptive().ok_or("engine lost its policy")?;
        let parity = policy.counters().pick_parity.get();
        if parity < 180 {
            return Err(format!("only {parity} of 192 small deltas picked parity"));
        }
    }
    // Churn phase: every byte of every block changes, incompressibly.
    for round in 0..24u8 {
        for lba in 0..8 {
            w.write_fill(lba, round + 1).map_err(op_err)?;
        }
    }
    w.barrier()?;
    {
        let policy = w.engine().adaptive().ok_or("engine lost its policy")?;
        let c = policy.counters();
        if c.pick_full.get() < 180 {
            return Err(format!(
                "only {} of 192 churn writes picked full images",
                c.pick_full.get()
            ));
        }
        // Counterfactual sanity: with a parity-dominated first half,
        // shipping full images everywhere (traditional) must cost
        // strictly more than what the policy shipped, and regret
        // against the per-write oracle stays a sliver of the total.
        let shipped = c.shipped_bytes.get();
        if c.cf_traditional_bytes.get() <= shipped {
            return Err("traditional counterfactual not above adaptive shipped bytes".into());
        }
        if c.regret_bytes.get() * 10 > shipped {
            return Err(format!(
                "regret {} bytes exceeds 10% of shipped {shipped}",
                c.regret_bytes.get()
            ));
        }
    }
    w.check_invariants()?;
    Ok(ScenarioOutcome::collect(&w))
}

fn op_err(e: impl std::fmt::Display) -> String {
    format!("unexpected operation failure: {e}")
}

/// A named scenario: a zero-argument run returning the deterministic
/// event-count and trace summaries on success, or the violated
/// invariant.
pub(crate) type ScenarioFn = fn() -> Result<ScenarioOutcome, String>;

/// Every named scenario, in a stable order.
pub const SCENARIOS: &[(&str, ScenarioFn)] = &[
    ("link_flap", link_flap),
    ("crash_mid_resync", crash_mid_resync),
    ("reorder", reorder),
    ("dup", dup),
    ("slow_wan", slow_wan),
    ("quorum_loss", quorum_loss),
    ("crash_with_frames_in_flight", crash_with_frames_in_flight),
    ("prune_then_rejoin", prune_then_rejoin),
    ("flush_during_link_failure", flush_during_link_failure),
    ("drop_data_frame", drop_data_frame),
    ("lost_ack_resync", lost_ack_resync),
    ("corruption_wire_flip", corruption_wire_flip),
    ("corruption_scrub_repair", corruption_scrub_repair),
    ("corruption_wire_retransmit", corruption_wire_retransmit),
    ("ec_rebuild_one", ec_rebuild_one),
    ("ec_rebuild_two", ec_rebuild_two),
    ("migrate_under_faults", migrate_under_faults),
    ("read_offload_rejoin", read_offload_rejoin),
    ("adaptive_phase_shift", adaptive_phase_shift),
];

/// Runs one scenario by name, returning its [`ScenarioOutcome`] —
/// event-count summary plus the trace sink's summary.
///
/// # Errors
///
/// The invariant violation, or an unknown-name error.
pub fn run_scenario(name: &str) -> Result<ScenarioOutcome, String> {
    match SCENARIOS.iter().find(|(n, _)| *n == name) {
        Some((_, f)) => f(),
        None => Err(format!("unknown scenario '{name}'")),
    }
}
