//! Named fault scenarios from the simulation harness, run as part of
//! the tier-1 suite.
//!
//! Each scenario drives the real engine/cluster/resync stack through a
//! [`prins_net::SimNet`] in virtual time and ends with the full
//! invariant set (bit-identity, historical states, per-LBA order, byte
//! conservation, resync convergence). On failure the returned string
//! names the violated invariant; replay interactively with
//! `cargo run -p prins-sim --bin sim-replay -- scenario <name>`.

use prins_sim::{run_scenario, SCENARIOS};

#[test]
fn flush_during_link_failure() {
    run_scenario("flush_during_link_failure").unwrap();
}

#[test]
fn crash_with_frames_in_flight() {
    run_scenario("crash_with_frames_in_flight").unwrap();
}

#[test]
fn link_flap_with_delta_resync() {
    run_scenario("link_flap").unwrap();
}

#[test]
fn crash_mid_resync_falls_back_to_full_images() {
    run_scenario("crash_mid_resync").unwrap();
}

#[test]
fn quorum_loss_and_recovery() {
    run_scenario("quorum_loss").unwrap();
}

#[test]
fn lost_ack_never_double_applies_parity() {
    run_scenario("lost_ack_resync").unwrap();
}

#[test]
fn live_migration_survives_slow_links_and_node_kill() {
    run_scenario("migrate_under_faults").unwrap();
}

#[test]
fn offloaded_reads_stay_fresh_across_rejoin() {
    run_scenario("read_offload_rejoin").unwrap();
}

#[test]
fn the_whole_scenario_table_passes() {
    for (name, f) in SCENARIOS {
        f().unwrap_or_else(|e| panic!("scenario {name}: {e}"));
    }
}
