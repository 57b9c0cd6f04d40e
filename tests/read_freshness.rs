//! Epoch-guarded read offload never serves stale bytes.
//!
//! Every read below goes through [`prins_sim::World::read_checked`] on
//! a one-group cluster topology (a plain replicated cluster), which
//! fails the test on the spot if the returned block differs from
//! the primary's current content (the freshness oracle) or is not a
//! state the primary ever held. The schedules are the two adversarial
//! shapes the guard exists for: a replica that missed writes rejoining
//! under a live read stream, and a link that corrupts frames — data
//! and read requests alike — in flight.

use std::time::Duration;

use prins_cluster::ClusterConfig;
use prins_net::Dir;
use prins_sim::{Topology, World};

/// A one-group cluster of `replicas` over 8 blocks.
fn mirror(replicas: usize, ack_window: usize) -> World {
    let config = ClusterConfig {
        ack_timeout: Duration::from_millis(50),
        write_quorum: 0,
        offline_after: 2,
        ack_window,
        ..Default::default()
    };
    World::new(Topology::Cluster {
        blocks: 8,
        groups: 1,
        replicas,
        config,
        slot_blocks: 1,
    })
}

/// A two-replica mirror loses one replica, keeps writing, then rejoins
/// it while reads race every resync step. The guard must route every
/// read around the lagging/syncing replica: zero oracle mismatches,
/// and the rejection counter proves the guard actually fired.
#[test]
fn rejoin_race_never_serves_pre_rejoin_state() {
    let mut w = mirror(2, 2);
    let blocks = w.blocks();
    let mut tag = 0u8;
    for lba in 0..blocks {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).unwrap();
        w.read_checked(lba).unwrap();
    }

    // Replica 0 misses a full round of overwrites.
    w.ctl(0).sever();
    for lba in 0..blocks {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).unwrap();
        // Its copy of `lba` is now one generation stale — a read that
        // reached it would fabricate time travel.
        w.read_checked(lba).unwrap();
    }
    w.check_historical().unwrap();

    // Rejoin with reads racing every step of the catch-up: the replica
    // is Syncing (and each block dirty) until its delta applies, so
    // the guard must keep rejecting it mid-resync.
    w.ctl(0).restore();
    w.group_mut(0).rejoin(0).unwrap();
    loop {
        let remaining = w.group_mut(0).resync_step(0, 1).unwrap();
        for lba in 0..blocks {
            w.read_checked(lba).unwrap();
        }
        if remaining == 0 {
            break;
        }
    }
    w.quiesce().unwrap();
    w.check_invariants().unwrap();

    // Fully caught up: reads offload to both replicas again.
    for lba in 0..blocks {
        w.read_checked(lba).unwrap();
    }
    let snap = w.registry().snapshot();
    assert!(
        snap.counters["read_rejected_stale"] > 0,
        "outage + rejoin produced no guard rejections"
    );
    assert!(snap.counters["reads_offloaded"] > 0);
}

/// A link flips bits in every frame toward replica 0 — write payloads
/// and sealed read requests alike. The seal turns each into a
/// `NAK_CORRUPT`; reads must fall through to a clean source and stay
/// byte-fresh throughout, and resync must repair the damage once the
/// link heals.
#[test]
fn corrupt_frames_never_leak_into_reads() {
    // Closed-loop window: a NAK lands before the next frame is sent,
    // so corruption can never skew a parity base (see the fuzzer's
    // module docs for why pipelined windows transiently can).
    let mut w = mirror(3, 1);
    let blocks = w.blocks();
    let mut tag = 0u8;
    for lba in 0..blocks {
        tag = tag.wrapping_add(1);
        w.write_tag(lba, tag).unwrap();
    }

    // Damage every frame toward replica 0 for the whole phase.
    w.ctl(0).corrupt_next(Dir::AtoB, u32::MAX);
    for round in 0..3 {
        for lba in 0..blocks {
            tag = tag.wrapping_add(1);
            let _ = w.write_tag(lba, tag);
            w.read_checked(lba).unwrap();
        }
        w.check_historical()
            .unwrap_or_else(|e| panic!("round {round}: {e}"));
    }

    // Heal, repair, and verify the full invariant set — then confirm
    // the guard rejected the corrupted path while it was live.
    w.quiesce().unwrap();
    w.check_invariants().unwrap();
    for lba in 0..blocks {
        w.read_checked(lba).unwrap();
    }
    let snap = w.registry().snapshot();
    assert!(
        snap.counters["read_rejected_stale"] > 0,
        "corrupted link produced no guard rejections"
    );
    assert!(
        snap.counters["checksum_failures"] > 0,
        "corruption was never detected by the seal"
    );
}
