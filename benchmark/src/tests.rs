//! Checks of the benchmark itself: the catalogue against
//! `BENCHMARK.json`, the command line, and a smoke-scale run of all
//! four workloads (run with `cargo test --release`; the LZSS-heavy
//! workload is slow unoptimised).

use std::collections::BTreeSet;

use super::*;

fn legal_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn legal_unit(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

#[test]
fn catalogue_names_are_legal_and_used_once() {
    let mut seen = BTreeSet::new();
    for def in END_TO_END.iter().chain(PER_LAYER) {
        assert!(legal_name(def.name), "{}", def.name);
        assert!(legal_unit(def.unit), "{}: unit {}", def.name, def.unit);
        assert!(matches!(def.better, "higher" | "lower"), "{}", def.name);
        assert!(seen.insert(def.name), "{} listed twice", def.name);
    }
    for spec in &SPECS {
        assert!(
            legal_name(spec.name) && seen.insert(spec.name),
            "{}",
            spec.name
        );
        assert!(
            spec.why.len() <= 200 && !spec.why.contains('\n'),
            "{}",
            spec.name
        );
    }
    assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128 && SPECS.len() <= 8);
}

#[test]
fn benchmark_json_lists_exactly_the_catalogue() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    assert!(text.len() <= 64 * 1024);
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let keys: Vec<&str> = doc.as_obj().unwrap().keys().map(String::as_str).collect();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let strings = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|s| s.as_str().unwrap().to_string())
            .collect()
    };
    assert_eq!(strings("paths"), ["benchmark"]);
    let command = strings("command");
    assert!(
        command.len() <= 32
            && command
                .iter()
                .all(|word| !word.starts_with('/') && !word.contains(".."))
    );
    let seconds = doc.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    // Every run, with set-up, inside the driver's budget.
    let runs = 4.0 + 22.0 * SPECS.len() as f64;
    assert!(
        runs * (seconds + 5.0) + 2.0 * 120.0 <= 3420.0,
        "{runs} runs of {seconds} s do not fit"
    );

    let field =
        |entry: &Json, key: &str| entry.get(key).and_then(Json::as_str).unwrap().to_string();
    let listed: Vec<(String, String)> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|w| {
            assert_eq!(w.as_obj().unwrap().len(), 2);
            (field(w, "name"), field(w, "why"))
        })
        .collect();
    let specs: Vec<(String, String)> = SPECS
        .iter()
        .map(|s| (s.name.to_string(), s.why.to_string()))
        .collect();
    assert_eq!(listed, specs);

    for (key, catalogue, bounded) in [
        ("end_to_end", END_TO_END, true),
        ("per_layer", PER_LAYER, false),
    ] {
        let entries = doc.get(key).and_then(Json::as_arr).unwrap();
        assert_eq!(entries.len(), catalogue.len(), "{key}");
        for (entry, def) in entries.iter().zip(catalogue) {
            assert_eq!(
                entry.as_obj().unwrap().len(),
                if bounded { 4 } else { 3 },
                "{}",
                def.name
            );
            assert_eq!(field(entry, "name"), def.name);
            assert_eq!(field(entry, "unit"), def.unit, "{}", def.name);
            assert_eq!(field(entry, "better"), def.better, "{}", def.name);
            if bounded {
                let bound = entry.get("bound").and_then(Json::as_f64).unwrap();
                assert!(bound > 0.0 && bound <= 0.25, "{}: bound {bound}", def.name);
            }
        }
    }
    let setup = doc
        .get("end_to_end")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|m| field(m, "name") == "setup_s");
    let setup = setup.expect("setup_s is an end-to-end metric");
    assert_eq!(
        (
            field(setup, "unit").as_str(),
            field(setup, "better").as_str()
        ),
        ("s", "lower")
    );
}

fn args(line: &str) -> Vec<String> {
    line.split_whitespace().map(str::to_string).collect()
}

#[test]
fn command_line_forms() {
    match parse(&args(
        "--workload tpcc-commit --seed 9 --seconds 20 --trace 1",
    ))
    .unwrap()
    {
        Command::Single {
            spec,
            seed: 9,
            seconds,
            trace: true,
        } => {
            assert_eq!(spec.name, "tpcc-commit");
            assert_eq!(seconds, 20.0);
        }
        _ => panic!("not a single run"),
    }
    assert!(matches!(
        parse(&args("run --seed 3 --smoke")).unwrap(),
        Command::All {
            seed: 3,
            seconds: None,
            smoke: true
        }
    ));
    match parse(&args("compare a.json b.json")).unwrap() {
        Command::Compare { a, b } => {
            assert_eq!((a.as_str(), b.as_str()), ("a.json", "b.json"))
        }
        _ => panic!("not a compare"),
    }
    for bad in [
        "",
        "--workload nope --seed 1 --seconds 1 --trace 0",
        "--workload tpcc-stream --seed 1 --seconds 1",
        "--workload tpcc-stream --seed 1 --seconds 0 --trace 0",
        "--workload tpcc-stream --seed x --seconds 1 --trace 0",
        "--workload tpcc-stream --seed 1 --seconds 1 --trace 2",
        "run --seed 1 --frobnicate",
        "compare only-one.json",
    ] {
        assert!(parse(&args(bad)).is_err(), "{bad:?} accepted");
    }
}

/// The metrics the single-threaded replay counts; they may not depend
/// on timing.
const COUNTS: &[&str] = &[
    "net.replay_wire_bytes_per_write",
    "net.replay_frames_per_write",
    "net.t1_ms_per_write",
    "parity.delta_bytes_out",
    "parity.change_ratio_pm",
    "parity.segments_per_write",
    "repl.payload_bytes_out",
    "repl.frame_overhead_bytes",
    "compress.calls_share",
    "compress.ratio_pm",
    "policy.pick_share.parity",
    "policy.pick_share.parity_lzss",
    "policy.pick_share.full",
    "policy.pick_share.full_lzss",
    "policy.regret_bytes_per_write",
];

#[test]
fn smoke_ledger_is_complete_correct_and_its_counts_repeat() {
    let (first, failed) = document(7, 0.3, &Scale::SMOKE).expect("smoke run");
    assert_eq!(failed, 0, "operations failed at smoke scale");
    let (second, _) = document(7, 0.3, &Scale::SMOKE).expect("second smoke run");
    let (other_seed, _) = document(8, 0.3, &Scale::SMOKE).expect("other-seed smoke run");

    let workloads = first.get("workloads").and_then(Json::as_obj).unwrap();
    let names: Vec<&str> = workloads.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
    expected.sort_unstable();
    assert_eq!(names, expected);
    for (name, section) in workloads {
        assert_eq!(section.get("correct"), Some(&Json::Bool(true)), "{name}");
        for (tier, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let metrics = section.get(tier).and_then(Json::as_obj).unwrap();
            let got: BTreeSet<&str> = metrics.keys().map(String::as_str).collect();
            let want: BTreeSet<&str> = catalogue.iter().map(|d| d.name).collect();
            assert_eq!(got, want, "{name} {tier}");
            for (metric, value) in metrics {
                let median = value.get("median").and_then(Json::as_f64);
                assert!(
                    median.is_some_and(f64::is_finite),
                    "{name} {metric}: {value}"
                );
            }
        }
        // A user-visible metric that reads 0 measured nothing.
        for def in END_TO_END {
            let median = section.at(&["end_to_end", def.name, "median"]).unwrap();
            assert!(median.as_f64().unwrap() > 0.0, "{name} {}", def.name);
        }
        let count = |doc: &Json, metric: &str| {
            doc.at(&["workloads", name, "per_layer", metric, "median"])
                .and_then(Json::as_f64)
                .unwrap()
        };
        for metric in COUNTS {
            assert_eq!(
                count(&first, metric),
                count(&second, metric),
                "{name} {metric} differs between same-seed runs"
            );
        }
        assert_ne!(
            count(&first, "parity.delta_bytes_out"),
            count(&other_seed, "parity.delta_bytes_out"),
            "{name}: the seed does not reach the content"
        );
    }
    let ratio = first.at(&["derived", "stream_over_cluster_writes_per_s"]);
    assert!(ratio.and_then(Json::as_f64).unwrap() > 0.0);
}
