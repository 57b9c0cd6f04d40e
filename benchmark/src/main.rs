//! The repository's benchmark: four workloads, end-to-end metrics and
//! a per-layer ledger, measured from outside the program.
//!
//! ```text
//! prins-perfbench --workload W --seed N --seconds S --trace 0|1   one contract run
//! prins-perfbench run --seed N [--seconds S] [--smoke]           all four, one ledger
//! prins-perfbench compare A.json B.json                           against ./BENCHMARK.json
//! ```
//!
//! The result (one line, or the ledger document) is all that goes to
//! standard output; tables and progress go to standard error.
//!
//! See `benchmark/README.md` for what every metric means.

mod compare;
mod json;
mod ledger;
mod measure;
mod replay;
mod traceloop;
mod workload;

use std::process::ExitCode;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use json::Json;
use ledger::{MetricDef, Metrics, END_TO_END, PER_LAYER};
use traceloop::TraceLoop;
use workload::{Repeat, Scale, Spec, SPECS};

#[global_allocator]
static ALLOCATOR: measure::CountingAlloc = measure::CountingAlloc;

/// One workload measured one way.
struct Outcome {
    metrics: Metrics,
    /// Writes and reads issued inside timed windows (and the replay).
    attempted: u64,
    failed: u64,
}

fn tally(repeats: &[Repeat]) -> (u64, u64) {
    repeats
        .iter()
        .fold((0, 0), |(a, f), r| (a + r.writes + r.reads, f + r.failed))
}

/// `--trace 0`: set-up timed `scale.setups` times, then `scale.repeats`
/// timed repeats sharing `seconds`, every hook off.
fn run_end_to_end(spec: &Spec, seed: u64, seconds: f64, scale: &Scale) -> Result<Outcome, String> {
    let mut setups = Vec::with_capacity(scale.setups);
    let mut list = None;
    let setup_started = Instant::now();
    for _ in 0..scale.setups {
        // Normally 0.4 s a time; a starved machine gets fewer of them.
        if !setups.is_empty() && setup_started.elapsed() > Duration::from_secs(10) {
            break;
        }
        let ticks = measure::machine_ticks();
        let started = Instant::now();
        let captured = workload::capture(spec, scale, seed)?;
        drop(workload::Fixture::devices(&captured, &captured.initial));
        setups.push((started.elapsed().as_secs_f64(), measure::steal_share(ticks)));
        list = Some(captured);
    }
    let list = list.ok_or("no set-up ran")?;
    let setups_s: Vec<f64> = workload::least_stolen(setups, |s| s.1)
        .iter()
        .map(|s| s.0)
        .collect();
    let budget = Duration::from_secs_f64(seconds / scale.repeats as f64);
    let mut tl = TraceLoop::new(&list);
    let repeats = (0..scale.repeats)
        .map(|_| workload::run_repeat(spec, &list, &mut tl, scale, budget, None, false))
        .collect::<Result<Vec<_>, _>>()?;
    let (attempted, failed) = tally(&repeats);
    let repeats = workload::least_stolen(repeats, |r| r.steal_share);
    Ok(Outcome {
        metrics: ledger::end_to_end(spec, &repeats, &setups_s),
        attempted,
        failed,
    })
}

/// `--trace 1`: the single-threaded layer replay, then repeats that
/// alternate hooks off / hooks on for what is left of `seconds`.
fn run_per_layer(spec: &Spec, seed: u64, seconds: f64, scale: &Scale) -> Result<Outcome, String> {
    let list = workload::capture(spec, scale, seed)?;
    let started = Instant::now();
    // Ten seconds where the replay normally takes one or two.
    let give_up = Duration::from_secs_f64((seconds / 2.0).max(5.0));
    let replayed = replay::replay(spec, &list, scale.replay_ops, give_up)?;
    let replay_writes = replayed["driver.replay_writes"] as u64;
    let generator_ns = workload::generator_ns_per_op(&list);
    let pairs = scale.repeats.div_ceil(2).max(1);
    let left = (seconds - started.elapsed().as_secs_f64()).max(0.0);
    let budget = Duration::from_secs_f64((left / (2 * pairs) as f64).max(0.15));
    let (mut untraced, mut traced) = (Vec::new(), Vec::new());
    let mut tl = TraceLoop::new(&list);
    for _ in 0..pairs {
        untraced.push(workload::run_repeat(
            spec, &list, &mut tl, scale, budget, None, true,
        )?);
        let registry = Some(prins_obs::Registry::new());
        traced.push(workload::run_repeat(
            spec, &list, &mut tl, scale, budget, registry, true,
        )?);
    }
    let (a0, f0) = tally(&untraced);
    let (a1, f1) = tally(&traced);
    let untraced = workload::least_stolen(untraced, |r| r.steal_share);
    let traced = workload::least_stolen(traced, |r| r.steal_share);
    Ok(Outcome {
        metrics: ledger::per_layer(spec, &replayed, generator_ns, &untraced, &traced),
        attempted: a0 + a1 + replay_writes,
        failed: f0 + f1,
    })
}

fn print_table(title: &str, metrics: &Metrics, catalogue: &[MetricDef]) {
    eprintln!("# {title}");
    eprintln!(
        "{:<34} {:>8} {:>16} {:>16} {:>16} {:>3} {:>9}",
        "metric", "unit", "median", "min", "max", "n", "samples"
    );
    for d in catalogue {
        let s = metrics[d.name];
        eprintln!(
            "{:<34} {:>8} {:>16.4} {:>16.4} {:>16.4} {:>3} {:>9}",
            d.name, d.unit, s.median, s.min, s.max, s.repeats, s.samples
        );
    }
}

fn command_output(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

fn environment(seed: u64, seconds: f64, scale: &Scale) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("nproc", Json::Num(nproc as f64)),
        (
            "commit",
            Json::str(command_output("git", &["rev-parse", "HEAD"])),
        ),
        ("rustc", Json::str(command_output("rustc", &["--version"]))),
        ("seed", Json::Num(seed as f64)),
        ("seconds_per_run", Json::Num(seconds)),
        ("repeats", Json::Num(scale.repeats as f64)),
        ("client_threads", Json::Num(1.0)),
        ("loop", Json::str("closed")),
        ("replicas", Json::Num(workload::REPLICAS as f64)),
        ("block_bytes", Json::Num(8192.0)),
        (
            "links",
            Json::str(
                "in-memory channel; tpcc-commit: loopback TCP, 127.0.0.1 port 0, not a real link",
            ),
        ),
        (
            "engine_knobs",
            Json::obj([
                (
                    "mode",
                    Json::str("prins (hostile-adaptive: adaptive policy)"),
                ),
                ("encode_workers", Json::Num(workload::ENCODE_WORKERS as f64)),
                ("ack_window", Json::Num(workload::ACK_WINDOW as f64)),
                ("batch_frames", Json::Num(workload::BATCH_FRAMES as f64)),
                ("coalesce", Json::Bool(workload::COALESCE)),
                (
                    "ack_timeout_s",
                    Json::Num(workload::ACK_TIMEOUT.as_secs_f64()),
                ),
            ]),
        ),
    ])
}

/// Runs every workload both ways and returns the ledger document plus
/// the total of failed operations.
fn document(seed: u64, seconds: f64, scale: &Scale) -> Result<(Json, u64), String> {
    let mut sections = Vec::new();
    let mut failed_total = 0;
    let mut wps = std::collections::BTreeMap::new();
    for spec in &SPECS {
        eprintln!("[{}] end to end", spec.name);
        let e2e = run_end_to_end(spec, seed, seconds, scale)?;
        eprintln!("[{}] per layer", spec.name);
        let layers = run_per_layer(spec, seed, seconds, scale)?;
        print_table(
            &format!("{} end to end", spec.name),
            &e2e.metrics,
            END_TO_END,
        );
        print_table(
            &format!("{} per layer", spec.name),
            &layers.metrics,
            PER_LAYER,
        );
        wps.insert(spec.name, e2e.metrics["writes_per_s"].median);
        let failed = e2e.failed + layers.failed;
        failed_total += failed;
        sections.push((
            spec.name,
            Json::obj([
                ("why", Json::str(spec.why)),
                (
                    "attempted",
                    Json::Num((e2e.attempted + layers.attempted) as f64),
                ),
                ("failed", Json::Num(failed as f64)),
                ("correct", Json::Bool(failed == 0)),
                ("end_to_end", ledger::section(&e2e.metrics, END_TO_END)),
                ("per_layer", ledger::section(&layers.metrics, PER_LAYER)),
            ]),
        ));
    }
    let doc = Json::obj([
        ("schema", Json::Num(1.0)),
        ("env", environment(seed, seconds, scale)),
        ("workloads", Json::obj(sections)),
        (
            "derived",
            Json::obj([(
                "stream_over_cluster_writes_per_s",
                Json::Num(wps["tpcc-stream"] / wps["cluster-rw"]),
            )]),
        ),
    ]);
    Ok((doc, failed_total))
}

/// Ends the process if a run hangs: a blocked barrier cannot be
/// cancelled from outside, and the caller waits at most 180 s.
struct Watchdog {
    disarm: mpsc::Sender<()>,
    thread: std::thread::JoinHandle<()>,
}

impl Watchdog {
    fn arm(limit: Duration) -> Watchdog {
        let (disarm, armed) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if armed.recv_timeout(limit) == Err(mpsc::RecvTimeoutError::Timeout) {
                eprintln!("watchdog: no result after {limit:?}, giving up");
                std::process::exit(3);
            }
        });
        Watchdog { disarm, thread }
    }

    fn disarm(self) {
        drop(self.disarm);
        self.thread.join().expect("watchdog thread panicked");
    }
}

enum Command {
    Single {
        spec: &'static Spec,
        seed: u64,
        seconds: f64,
        trace: bool,
    },
    All {
        seed: u64,
        seconds: Option<f64>,
        smoke: bool,
    },
    Compare {
        a: String,
        b: String,
    },
}

const USAGE: &str = "usage:
  prins-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
  prins-perfbench run --seed <n> [--seconds <s>] [--smoke] > ledger.json
  prins-perfbench compare <A.json> <B.json>     (bounds from ./BENCHMARK.json)
workloads: tpcc-stream tpcc-commit hostile-adaptive cluster-rw";

fn parse(args: &[String]) -> Result<Command, String> {
    let mut words = args.iter().map(String::as_str).peekable();
    let compare = words.peek() == Some(&"compare");
    if compare || words.peek() == Some(&"run") {
        words.next();
    }
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut smoke, mut files) = (false, Vec::new());
    while let Some(word) = words.next() {
        let mut value = |what: &str| {
            words
                .next()
                .map(str::to_string)
                .ok_or(format!("{what} needs a value"))
        };
        match word {
            "--workload" => workload = Some(value(word)?),
            "--seed" => {
                seed = Some(
                    value(word)?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value(word)?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value(word)?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--smoke" => smoke = true,
            file if compare && !file.starts_with("--") => files.push(file.to_string()),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if compare {
        let [a, b] =
            <[String; 2]>::try_from(files).map_err(|_| "compare takes two ledger files")?;
        return Ok(Command::Compare { a, b });
    }
    let seed = seed.ok_or("--seed is required")?;
    match workload {
        Some(name) => Ok(Command::Single {
            spec: workload::spec(&name).ok_or(format!("unknown workload {name}"))?,
            seed,
            seconds: seconds.ok_or("--seconds is required")?,
            trace: trace.ok_or("--trace is required")?,
        }),
        None => Ok(Command::All {
            seed,
            seconds,
            smoke,
        }),
    }
}

fn execute(command: Command) -> Result<ExitCode, String> {
    match command {
        Command::Compare { a, b } => compare::run(&a, &b, "BENCHMARK.json"),
        Command::Single {
            spec,
            seed,
            seconds,
            trace,
        } => {
            let watchdog = Watchdog::arm(Duration::from_secs(170));
            let (outcome, catalogue) = if trace {
                (run_per_layer(spec, seed, seconds, &Scale::FULL)?, PER_LAYER)
            } else {
                (
                    run_end_to_end(spec, seed, seconds, &Scale::FULL)?,
                    END_TO_END,
                )
            };
            watchdog.disarm();
            print_table(spec.name, &outcome.metrics, catalogue);
            println!(
                "{}",
                ledger::contract_line(
                    &outcome.metrics,
                    catalogue,
                    outcome.attempted,
                    outcome.failed
                )
            );
            Ok(ExitCode::SUCCESS)
        }
        Command::All {
            seed,
            seconds,
            smoke,
        } => {
            let scale = if smoke { Scale::SMOKE } else { Scale::FULL };
            let seconds = seconds.unwrap_or(if smoke { 0.6 } else { 20.0 });
            let limit = Duration::from_secs_f64(SPECS.len() as f64 * (2.0 * seconds * 5.0 + 60.0));
            let watchdog = Watchdog::arm(limit);
            let (doc, failed) = document(seed, seconds, &scale)?;
            watchdog.disarm();
            println!("{doc:#}");
            // A diverged replica or a failed operation is not a result.
            Ok(if failed == 0 {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(2)
            })
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse(&args).and_then(execute) {
        Ok(code) => code,
        Err(message) => {
            eprintln!("prins-perfbench: {message}\n{USAGE}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests;
