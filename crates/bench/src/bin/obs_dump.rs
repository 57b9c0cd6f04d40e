//! Dumps the unified metrics snapshot of a deterministic TPC-C mirror
//! run (see [`prins_bench::obs_experiment`]).
//!
//! ```text
//! obs-dump                   # full JSON snapshot
//! obs-dump --ops 600         # bigger run
//! obs-dump --summary         # event-count summary only (the CI golden)
//! obs-dump --table           # human-readable table
//! obs-dump --prometheus      # Prometheus text exposition
//! obs-dump --traces          # trace-sink dump of the traced
//!                            # 10x-slow-link run: summary JSON, then
//!                            # the sink's aggregates (latency, tail
//!                            # attribution, SLO burn) as a table
//! ```
//!
//! The run is virtual-time simulation: two runs with the same `--ops`
//! print byte-identical output, so the summary can be diffed against a
//! checked-in golden file in CI.

use std::process::ExitCode;

use prins_bench::{obs_experiment, trace_experiment};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops: usize = 300;
    let mut format = "json";
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--ops" => match iter.next().and_then(|v| v.parse().ok()) {
                Some(v) => ops = v,
                None => {
                    eprintln!("--ops needs a number");
                    return ExitCode::FAILURE;
                }
            },
            "--summary" => format = "summary",
            "--table" => format = "table",
            "--prometheus" => format = "prometheus",
            "--json" => format = "json",
            "--traces" => format = "traces",
            other => {
                eprintln!(
                    "unknown argument {other}; usage: obs-dump \
                     [--ops N] [--summary | --table | --prometheus | --json | --traces]"
                );
                return ExitCode::FAILURE;
            }
        }
    }
    if format == "traces" {
        // The traced run is a separate experiment (one lane 10x slow)
        // so the untraced obs golden keeps its exact event counts.
        return match trace_experiment(ops) {
            Ok(report) => {
                println!("{}", report.sink.summary_json());
                print!("{report}");
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("obs-dump failed: {e}");
                ExitCode::FAILURE
            }
        };
    }
    match obs_experiment(ops) {
        Ok(snap) => {
            match format {
                "summary" => println!("{}", snap.event_summary_json()),
                "table" => println!("{}", snap.to_table()),
                "prometheus" => print!("{}", snap.to_prometheus()),
                _ => println!("{}", snap.to_json()),
            }
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("obs-dump failed: {e}");
            ExitCode::FAILURE
        }
    }
}
