//! Every named scenario passes the full invariant set.

use prins_sim::{run_scenario, SCENARIOS};

#[test]
fn all_named_scenarios_pass() {
    let mut failures = Vec::new();
    for (name, f) in SCENARIOS {
        if let Err(e) = f() {
            failures.push(format!("{name}: {e}"));
        }
    }
    assert!(
        failures.is_empty(),
        "scenarios failed:\n{}",
        failures.join("\n")
    );
}

#[test]
fn scenario_lookup_by_name() {
    assert!(run_scenario("link_flap").is_ok());
    assert!(run_scenario("no_such_scenario").is_err());
}

#[test]
fn scenario_table_covers_the_required_set() {
    let names: Vec<&str> = SCENARIOS.iter().map(|(n, _)| *n).collect();
    for required in [
        "link_flap",
        "crash_mid_resync",
        "reorder",
        "dup",
        "slow_wan",
        "quorum_loss",
        "crash_with_frames_in_flight",
        "prune_then_rejoin",
    ] {
        assert!(names.contains(&required), "missing scenario {required}");
    }
    assert!(names.len() >= 8);
}
