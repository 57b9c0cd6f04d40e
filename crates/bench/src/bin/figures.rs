//! Command-line harness printing every paper figure.
//!
//! ```text
//! figures all                 # every figure at default ops
//! figures fig4 --ops 400      # one figure, more transactions
//! figures fig8                # queueing figures (fed by a measured run)
//! figures overhead writerate  # the §4/§3.3 scalar measurements
//! figures resync              # replica catch-up traffic vs image references
//! figures ec                  # erasure-coded storage + repair-bandwidth economics
//! figures trace               # tail-latency attribution under a 10x-slow link
//! figures scale               # scale-out read throughput sweep vs. MVA prediction
//! figures adaptive            # adaptive policy vs every static strategy
//! figures --smoke all         # tiny databases (CI-friendly)
//! figures scale --no-run      # validate the selection without running it
//! ```

use std::process::ExitCode;

use prins_bench::{
    adaptive_figure, ec_experiment, fig10_router_saturation, fig4_tpcc_oracle, fig5_tpcc_postgres,
    fig6_tpcw, fig7_fs_micro, fig8_response_t1, fig9_response_t3, measure_traffic,
    overhead_experiment, replicators, resync_figure, scale_experiment, trace_experiment,
    write_rate_experiment,
};
use prins_block::BlockSize;
use prins_repl::ReplicationMode;
use prins_workloads::{RunConfig, ScalePreset, Workload};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut ops: usize = 200;
    let mut scale = ScalePreset::Bench;
    let mut no_run = false;
    let mut wanted: Vec<String> = Vec::new();
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
            "--smoke" => scale = ScalePreset::Smoke,
            "--no-run" => no_run = true,
            other => wanted.push(other.to_string()),
        }
    }
    if wanted.is_empty() {
        wanted.push("all".to_string());
    }
    const KNOWN: &[&str] = &[
        "all",
        "fig4",
        "fig5",
        "fig6",
        "fig7",
        "fig8",
        "fig9",
        "fig10",
        "resync",
        "overhead",
        "writerate",
        "ec",
        "trace",
        "scale",
        "adaptive",
    ];
    if no_run {
        // Smoke mode: validate the selection against the wiring above
        // without paying for any measurement.
        let unknown: Vec<&String> = wanted
            .iter()
            .filter(|w| !KNOWN.contains(&w.as_str()))
            .collect();
        if unknown.is_empty() {
            println!("would run: {}", wanted.join(" "));
            return ExitCode::SUCCESS;
        }
        eprintln!("unknown figure selection {unknown:?}; known: {KNOWN:?}");
        return ExitCode::FAILURE;
    }
    let all = wanted.iter().any(|w| w == "all");
    let want = |name: &str| all || wanted.iter().any(|w| w == name);
    let mut ran_any = false;

    let result = (|| -> Result<(), Box<dyn std::error::Error>> {
        if want("fig4") {
            ran_any = true;
            println!("{}", fig4_tpcc_oracle(ops, scale)?);
        }
        if want("fig5") {
            ran_any = true;
            println!("{}", fig5_tpcc_postgres(ops, scale)?);
        }
        if want("fig6") {
            ran_any = true;
            println!("{}", fig6_tpcw(ops, scale)?);
        }
        if want("fig7") {
            ran_any = true;
            println!("{}", fig7_fs_micro(ops.min(10), scale)?);
        }
        if want("fig8") || want("fig9") || want("fig10") {
            ran_any = true;
            // Feed the queueing model with measured 8 KB TPC-C traffic.
            let config = RunConfig {
                scale,
                ..RunConfig::bench(BlockSize::kb8(), ops)
            };
            let m = measure_traffic(
                Workload::TpccOracle,
                &config,
                replicators(&ReplicationMode::PAPER),
            )?;
            println!(
                "(service times from measured TPC-C traffic at 8KB: \
                 traditional {:.0} B/write, compressed {:.0} B/write, prins {:.0} B/write)\n",
                m.traffic(ReplicationMode::Traditional).mean_payload(),
                m.traffic(ReplicationMode::Compressed).mean_payload(),
                m.traffic(ReplicationMode::Prins).mean_payload(),
            );
            if want("fig8") {
                println!("{}", fig8_response_t1(Some(&m)));
            }
            if want("fig9") {
                println!("{}", fig9_response_t3(Some(&m)));
            }
            if want("fig10") {
                println!("{}", fig10_router_saturation(Some(&m)));
            }
        }
        if want("resync") {
            ran_any = true;
            println!("{}", resync_figure(ops, scale)?);
        }
        if want("overhead") {
            ran_any = true;
            println!("{}\n", overhead_experiment(5_000, BlockSize::kb8())?);
        }
        if want("writerate") {
            ran_any = true;
            println!("{}\n", write_rate_experiment(ops, scale)?);
        }
        if want("ec") {
            ran_any = true;
            println!("{}\n", ec_experiment(ops, scale)?);
        }
        if want("trace") {
            ran_any = true;
            println!("{}", trace_experiment(ops)?);
        }
        if want("scale") {
            ran_any = true;
            println!("{}\n", scale_experiment(ops, scale)?);
        }
        if want("adaptive") {
            ran_any = true;
            println!("{}", adaptive_figure(ops, scale)?);
        }
        Ok(())
    })();

    if let Err(e) = result {
        eprintln!("figure generation failed: {e}");
        return ExitCode::FAILURE;
    }
    if !ran_any {
        eprintln!("unknown figure selection {wanted:?}; try: {KNOWN:?}");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
