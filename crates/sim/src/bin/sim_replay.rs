//! Seed replay and corpus runner for the simulation fuzzer.
//!
//! ```text
//! sim-replay <seed>                  replay one fuzz seed, print trace + verdict
//! sim-replay scenario <name|prefix*|all> [--events] [--traces]
//!                                    run named scenario(s); --events prints
//!                                    each run's deterministic event-count
//!                                    summary, --traces its trace-sink
//!                                    summary (both diffed against
//!                                    goldens in CI)
//! sim-replay golden --check|--bless   re-run every golden gate in the GOLDENS
//!                                    table below and diff it against its
//!                                    checked-in file (--check, what CI runs),
//!                                    or rewrite the files (--bless, the one
//!                                    regenerate command after an intentional
//!                                    behaviour change); run from the repo
//!                                    root; fails if some scenario is in no
//!                                    gate
//! sim-replay corpus <file> [--fresh N] [--append-failures]
//!                                    run every seed in <file> plus N fresh
//!                                    random seeds; print failing seeds;
//!                                    optionally append them to <file>
//! ```
//!
//! Seeds parse as decimal or `0x`-prefixed hex. Exit code is non-zero
//! if any seed or scenario fails.

use std::fs;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::{SystemTime, UNIX_EPOCH};

use prins_sim::{generate, minimize, run_case, run_scenario, SCENARIOS};

fn parse_seed(s: &str) -> Option<u64> {
    if let Some(hex) = s.strip_prefix("0x") {
        u64::from_str_radix(hex, 16).ok()
    } else {
        s.parse().ok()
    }
}

/// Plays `seed` (printing its whole trace first when `trace` is set);
/// a failure is printed with its minimized schedule and the verdict
/// that schedule draws. `origin` labels the seed's line.
fn check_seed(origin: &str, seed: u64, trace: bool) -> bool {
    let case = generate(seed);
    let report = run_case(&case);
    if trace {
        print!("{}", report.trace);
    }
    let Err(message) = report.verdict else {
        println!("{origin}seed {seed:#x}: ok");
        return true;
    };
    let minimized = minimize(&case);
    let message = run_case(&minimized).verdict.err().unwrap_or(message);
    println!("{origin}seed {seed:#x}: FAILED: {message}");
    println!("  minimized schedule ({} ops):", minimized.ops.len());
    for op in &minimized.ops {
        println!("    {op:?}");
    }
    println!("  replay with: sim-replay {seed:#x}");
    false
}

fn run_corpus(path: &str, fresh: usize, append_failures: bool) -> bool {
    let mut seeds: Vec<u64> = Vec::new();
    match fs::read_to_string(path) {
        Ok(text) => {
            for line in text.lines() {
                let line = line.split('#').next().unwrap_or("").trim();
                if line.is_empty() {
                    continue;
                }
                match parse_seed(line) {
                    Some(seed) => seeds.push(seed),
                    None => eprintln!("corpus {path}: skipping unparsable line '{line}'"),
                }
            }
        }
        Err(e) => {
            eprintln!("corpus {path}: {e}");
            return false;
        }
    }
    let corpus_len = seeds.len();
    // Fresh seeds are the one place entropy is allowed: the whole point
    // is that whatever they find is pinned by printing the seed.
    let entropy = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    for i in 0..fresh {
        seeds.push(
            entropy
                .wrapping_add(i as u64)
                .wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
    }
    let mut failures: Vec<u64> = Vec::new();
    for (i, &seed) in seeds.iter().enumerate() {
        let origin = if i < corpus_len { "corpus " } else { "fresh " };
        if !check_seed(origin, seed, false) {
            failures.push(seed);
        }
    }
    if append_failures && !failures.is_empty() {
        match fs::OpenOptions::new().append(true).open(path) {
            Ok(mut f) => {
                for seed in &failures {
                    let _ = writeln!(f, "{seed:#x} # regression, auto-appended");
                }
                println!("appended {} failing seed(s) to {path}", failures.len());
            }
            Err(e) => eprintln!("could not append failures to {path}: {e}"),
        }
    }
    println!(
        "corpus run: {} seed(s) ({corpus_len} corpus + {fresh} fresh), {} failure(s)",
        seeds.len(),
        failures.len()
    );
    failures.is_empty()
}

/// The scenario names `pattern` selects: `all` is every scenario, a
/// trailing `*` every scenario with that prefix (how the corruption_*
/// golden is pinned), anything else the one name.
fn select(pattern: &str) -> Vec<&str> {
    if pattern == "all" {
        SCENARIOS.iter().map(|(n, _)| *n).collect()
    } else if let Some(prefix) = pattern.strip_suffix('*') {
        SCENARIOS
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| n.starts_with(prefix))
            .collect()
    } else {
        vec![pattern]
    }
}

/// Runs the scenarios matching `pattern`, returning what the
/// `scenario` subcommand prints for them and whether all passed.
fn render_scenarios(pattern: &str, events: bool, traces: bool) -> (String, bool) {
    let names = select(pattern);
    if names.is_empty() {
        return (format!("no scenario matches '{pattern}'\n"), false);
    }
    let mut out = String::new();
    let mut ok = true;
    for name in names {
        match run_scenario(name) {
            Ok(outcome) => {
                if events {
                    out.push_str(&format!("scenario {name}: {}\n", outcome.events));
                }
                if traces {
                    out.push_str(&format!("scenario {name}: {}\n", outcome.traces));
                }
                if !events && !traces {
                    out.push_str(&format!("scenario {name}: ok\n"));
                }
            }
            Err(e) => {
                out.push_str(&format!("scenario {name}: FAILED: {e}\n"));
                ok = false;
            }
        }
    }
    (out, ok)
}

/// The golden gates: `(file, scenario patterns, summary flag)`. Each
/// file is the concatenated `scenario <pattern> <flag>` output of its
/// patterns and must replay byte-identically on every machine. A diff
/// means the pinned behaviour changed — `golden --bless` if that was
/// intentional — or nondeterminism crept into the stack (find it
/// before it breaks seed replay).
const GOLDENS: &[(&str, &[&str], &str)] = &[
    // Integrity: wire and replica-media bit flips; pins the
    // detect / retransmit / scrub behaviour.
    ("tests/corruption_golden.txt", &["corruption_*"], "--events"),
    // Erasure coding: one and two strip-holding nodes killed
    // mid-workload and rebuilt from k survivors; pins the EC
    // write / rebuild paths.
    ("tests/ec_golden.txt", &["ec_rebuild_*"], "--events"),
    // Scale-out: live migration under a 10x-slow link with a node kill
    // mid-copy, and offloaded reads racing a replica rejoin; pins
    // placement / migration / read-offload behaviour.
    (
        "tests/scale_out_golden.txt",
        &["migrate_under_faults", "read_offload_rejoin"],
        "--events",
    ),
    // Tracing: latency, per-stage tail attribution, SLO burn and
    // anomaly counts — trace IDs derive from deterministic counters,
    // never entropy; pins the traced hop set.
    (
        "tests/trace_golden.json",
        &["migrate_under_faults"],
        "--traces",
    ),
    // Adaptive policy: a small-delta -> churn stream with inline
    // assertions on decision mix and counterfactual regret through a
    // pipeline whose batching holds as built; pins the decision logic.
    (
        "tests/adaptive_golden.txt",
        &["adaptive_phase_shift"],
        "--events",
    ),
    // Faults and catch-up: link flaps, reorder, duplication, a slow
    // WAN, quorum loss, crashes, log folds and prunes before a rejoin,
    // lost frames and acks; pins the degrade / rejoin / resync paths.
    (
        "tests/fault_golden.txt",
        &[
            "link_flap",
            "crash_mid_resync",
            "reorder",
            "dup",
            "slow_wan",
            "quorum_loss",
            "crash_with_frames_in_flight",
            "prune_then_rejoin",
            "flush_during_link_failure",
            "drop_data_frame",
            "lost_ack_resync",
        ],
        "--events",
    ),
];

/// Re-runs every golden gate; `bless` rewrites the files instead of
/// comparing against them. A scenario no gate's patterns select fails
/// the run: every scenario's behaviour is pinned.
fn run_goldens(bless: bool) -> bool {
    let mut all_ok = true;
    for (name, _) in SCENARIOS {
        let pinned = GOLDENS
            .iter()
            .any(|(_, patterns, _)| patterns.iter().any(|p| select(p).contains(name)));
        if !pinned {
            println!("golden: scenario {name} is in no golden");
            all_ok = false;
        }
    }
    for &(path, patterns, flag) in GOLDENS {
        let mut fresh = String::new();
        let mut ok = true;
        for pattern in patterns {
            let (out, passed) = render_scenarios(pattern, flag == "--events", flag == "--traces");
            fresh.push_str(&out);
            ok &= passed;
        }
        let checked_in = if bless && ok {
            fs::write(path, &fresh).map(|()| fresh.clone())
        } else {
            fs::read_to_string(path)
        };
        match checked_in {
            Ok(golden) if ok && golden == fresh => {
                println!("golden {path}: {}", if bless { "written" } else { "ok" });
            }
            Ok(golden) => {
                println!("golden {path}: DIFFERS\n--- checked in\n{golden}+++ this run\n{fresh}");
                all_ok = false;
            }
            Err(e) => {
                println!("golden {path}: {e}");
                all_ok = false;
            }
        }
    }
    all_ok
}

const USAGE: &str = "usage: sim-replay <seed> | \
     sim-replay scenario <name|prefix*|all> [--events] [--traces] | \
     sim-replay golden --check|--bless | \
     sim-replay corpus <file> [--fresh N] [--append-failures]";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args: Vec<&str> = args.iter().map(String::as_str).collect();
    let ok = match args.as_slice() {
        ["scenario", name, flags @ ..] => {
            let (out, ok) = render_scenarios(
                name,
                flags.contains(&"--events"),
                flags.contains(&"--traces"),
            );
            print!("{out}");
            ok
        }
        ["golden", "--check"] => run_goldens(false),
        ["golden", "--bless"] => run_goldens(true),
        ["corpus", path, flags @ ..] => {
            let mut fresh = 0usize;
            let mut append = false;
            let mut it = flags.iter();
            while let Some(&flag) = it.next() {
                match flag {
                    "--fresh" => fresh = it.next().and_then(|v| v.parse().ok()).unwrap_or(0),
                    "--append-failures" => append = true,
                    other => eprintln!("ignoring unknown flag '{other}'"),
                }
            }
            run_corpus(path, fresh, append)
        }
        ["scenario" | "golden" | "corpus", ..] | [] => {
            eprintln!("{USAGE}");
            false
        }
        [seed_str, ..] => match parse_seed(seed_str) {
            Some(seed) => check_seed("", seed, true),
            None => {
                eprintln!("unparsable seed '{seed_str}'");
                false
            }
        },
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
