//! Seed replay is exact: the same seed produces a byte-identical event
//! trace and verdict on every run.

use prins_sim::{generate, run_case, SimOp};

/// The documented replay seed (see README): a mixed fault schedule
/// that exercises severs, drops and rejoins and converges cleanly.
const DOCUMENTED_SEED: u64 = 0xC0FFEE;

#[test]
fn documented_seed_replays_byte_identically() {
    let first = run_case(&generate(DOCUMENTED_SEED));
    let second = run_case(&generate(DOCUMENTED_SEED));
    assert_eq!(
        first.trace, second.trace,
        "same seed must produce a byte-identical event trace"
    );
    assert_eq!(first.verdict, second.verdict);
    assert_eq!(first.verdict, Ok(()), "documented seed must pass");
    assert!(
        first.trace.lines().count() > 10,
        "trace should record real network activity"
    );
    for topology in ["cluster", "engine", "ec"] {
        assert!(first.trace.contains(&format!("topology: {topology}\n")));
    }
    assert_eq!(first.trace.matches("\nverdict: ok").count(), 3);
}

#[test]
fn seed_expansion_is_deterministic() {
    for seed in [0u64, 1, 42, u64::MAX] {
        assert_eq!(generate(seed), generate(seed));
    }
}

#[test]
fn distinct_seeds_give_distinct_schedules() {
    assert_ne!(generate(1).ops, generate(2).ops);
}

#[test]
fn a_small_seed_sweep_converges() {
    for seed in 0u64..8 {
        let report = run_case(&generate(seed));
        assert_eq!(
            report.verdict,
            Ok(()),
            "seed {seed:#x} failed:\n{}",
            report.trace
        );
    }
}

#[test]
fn fault_free_schedules_stay_quiet_on_every_topology() {
    // With no fault control touched, every world also checks that its
    // registry recorded no NAK, ack failure or lifecycle transition —
    // sharded cases included, migration and cutover running throughout.
    for seed in 0u64..16 {
        let mut case = generate(seed);
        case.ops.retain(|op| {
            matches!(
                op,
                SimOp::Write { .. }
                    | SimOp::Read { .. }
                    | SimOp::Drain
                    | SimOp::Prune
                    | SimOp::MigrateStep
            )
        });
        let report = run_case(&case);
        assert_eq!(report.verdict, Ok(()), "seed {seed:#x}:\n{}", report.trace);
    }
}
