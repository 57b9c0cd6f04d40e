//! The metric catalogue and the arithmetic that turns repeats and the
//! layer replay into named values. `BENCHMARK.json` lists the same
//! names; a test keeps the two in step.

use std::collections::BTreeMap;

use prins_obs::Snapshot;

use crate::json::Json;
use crate::measure::{quantile, quartiles};
use crate::workload::{Path, Repeat, Spec, REPLICAS};

pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef { name, unit, better }
}

/// What a user of the storage sees. `op` is the call the workload's
/// client blocks on: a commit group (8 writes + barrier) on
/// `tpcc-commit`, one write call everywhere else. Its p99 swings by
/// half its value between runs on this box, so by the tail rule it
/// lives on the per-layer side as `driver.op_p99_us` and does not gate.
pub const END_TO_END: &[MetricDef] = &[
    def("writes_per_s", "1/s", "higher"),
    def("cpu_us_per_write", "us", "lower"),
    def("wire_bytes_per_write", "B", "lower"),
    def("op_p50_us", "us", "lower"),
    def("setup_s", "s", "lower"),
];

/// One layer each, `<crate>.<metric>`; `driver.*` and `recon.*` say how
/// far to trust the rest. No bounds: these explain, they do not gate.
pub const PER_LAYER: &[MetricDef] = &[
    def("block.capture_read_ns", "ns", "lower"),
    def("block.local_write_ns", "ns", "lower"),
    def("block.crc32c_ns_per_kb", "ns/KB", "lower"),
    def("buf.get_ns", "ns", "lower"),
    def("buf.pool_miss_ppm", "ppm", "lower"),
    def("buf.pool_in_use_hwm", "count", "lower"),
    def("parity.encode_delta_ns", "ns", "lower"),
    def("parity.decode_apply_ns", "ns", "lower"),
    def("parity.delta_bytes_out", "B", "lower"),
    def("parity.change_ratio_pm", "permille", "lower"),
    def("parity.segments_per_write", "count", "lower"),
    def("compress.lzss_compress_ns", "ns", "lower"),
    def("compress.lzss_decompress_ns", "ns", "lower"),
    def("compress.ratio_pm", "permille", "lower"),
    def("compress.calls_share", "share", "lower"),
    def("policy.decide_encode_ns", "ns", "lower"),
    def("policy.pick_share.parity", "share", "higher"),
    def("policy.pick_share.parity_lzss", "share", "higher"),
    def("policy.pick_share.full", "share", "lower"),
    def("policy.pick_share.full_lzss", "share", "lower"),
    def("policy.regret_bytes_per_write", "B", "lower"),
    def("repl.encode_write_ns", "ns", "lower"),
    def("repl.payload_bytes_out", "B", "lower"),
    def("repl.seal_ns", "ns", "lower"),
    def("repl.frame_overhead_bytes", "B", "lower"),
    def("repl.open_ns", "ns", "lower"),
    def("repl.apply_ns", "ns", "lower"),
    def("repl.allocs_per_write", "count", "lower"),
    def("net.send_ns", "ns", "lower"),
    def("net.roundtrip_us", "us", "lower"),
    def("net.allocs_per_frame", "count", "lower"),
    def("net.replay_frames_per_write", "count", "lower"),
    def("net.replay_wire_bytes_per_write", "B", "lower"),
    def("net.t1_ms_per_write", "ms", "lower"),
    def("net.frames_per_write", "count", "lower"),
    def("net.packets_per_write", "count", "lower"),
    def("core.write_block_ns", "ns", "lower"),
    def("core.flush_ns", "ns", "lower"),
    def("core.capture_ns", "ns", "lower"),
    def("core.local_write_ns", "ns", "lower"),
    def("core.admission_wait_ns", "ns", "lower"),
    def("core.encode_ns", "ns", "lower"),
    def("core.reorder_hold_ns", "ns", "lower"),
    def("core.lane_queue_ns", "ns", "lower"),
    def("core.send_ns", "ns", "lower"),
    def("core.ack_rtt_ns", "ns", "lower"),
    def("core.queue_depth_hwm", "count", "lower"),
    def("core.batch_fill", "count", "higher"),
    def("core.allocs_per_write", "count", "lower"),
    def("core.bytes_copied_per_write", "B", "lower"),
    def("core.retransmits", "count", "lower"),
    def("core.coalesced_writes", "count", "lower"),
    def("cluster.write_self_ns", "ns", "lower"),
    def("cluster.allocs_per_write", "count", "lower"),
    def("cluster.ack_rtt_ns", "ns", "lower"),
    def("cluster.read_offload_share", "share", "higher"),
    def("cluster.read_rejected_stale", "count", "lower"),
    def("trap.append_ns", "ns", "lower"),
    def("trap.log_bytes_per_write", "B", "lower"),
    def("obs.trace_overhead_pct", "%", "lower"),
    def("recon.layer_sum_us", "us", "lower"),
    def("recon.unexplained_pct", "%", "lower"),
    def("driver.generator_ns_per_op", "ns", "lower"),
    def("driver.replay_writes", "count", "higher"),
    def("driver.timer_ns", "ns", "lower"),
    def("driver.stalls_over_10ms", "count", "lower"),
    def("driver.repeat_spread_pct", "%", "lower"),
    def("driver.failed_ops", "count", "lower"),
    def("driver.steal_pct", "%", "lower"),
    def("driver.untraced_writes_per_s", "1/s", "higher"),
    def("driver.traced_writes_per_s", "1/s", "higher"),
    def("driver.cpu_us_per_write", "us", "lower"),
    def("driver.op_p99_us", "us", "lower"),
    def("driver.write_p50_us", "us", "lower"),
    def("driver.write_p99_us", "us", "lower"),
    def("driver.commit_p50_us", "us", "lower"),
    def("driver.commit_p99_us", "us", "lower"),
    def("driver.read_p50_us", "us", "lower"),
    def("driver.read_p99_us", "us", "lower"),
];

/// A reported value: the median over repeats with the quartiles and
/// the range beside it.
#[derive(Clone, Copy, Debug)]
pub struct Stat {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    /// Values the median was taken over.
    pub repeats: usize,
    /// Raw observations behind those values (latency samples, writes).
    pub samples: u64,
}

impl Stat {
    pub fn of(values: &[f64], samples: u64) -> Stat {
        let [q1, median, q3] = quartiles(values);
        Stat {
            median,
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            repeats: values.len(),
            samples,
        }
    }

    pub fn to_json(self, def: &MetricDef) -> Json {
        Json::obj([
            ("unit", Json::str(def.unit)),
            ("better", Json::str(def.better)),
            ("median", Json::Num(self.median)),
            ("q1", Json::Num(self.q1)),
            ("q3", Json::Num(self.q3)),
            ("min", Json::Num(self.min)),
            ("max", Json::Num(self.max)),
            ("repeats", Json::Num(self.repeats as f64)),
            ("samples", Json::Num(self.samples as f64)),
        ])
    }
}

pub type Metrics = BTreeMap<&'static str, Stat>;

fn over_repeats(
    repeats: &[Repeat],
    value: impl Fn(&Repeat) -> f64,
    samples: impl Fn(&Repeat) -> u64,
) -> Stat {
    let values: Vec<f64> = repeats.iter().map(&value).collect();
    Stat::of(&values, repeats.iter().map(samples).sum())
}

fn writes_per_s(r: &Repeat) -> f64 {
    r.writes as f64 / r.wall_s
}

fn cpu_us_per_write(r: &Repeat) -> f64 {
    r.cpu_s * 1e6 / r.writes.max(1) as f64
}

fn latency(repeats: &[Repeat], pick: fn(&Repeat) -> &Vec<u32>, permille: usize) -> Stat {
    over_repeats(
        repeats,
        |r| quantile(pick(r), permille) / 1e3,
        |r| pick(r).len() as u64,
    )
}

/// Checks a finished map against its catalogue: every name once, no
/// strangers. A miss is a bug in this file, not in the program.
fn checked(metrics: Metrics, catalogue: &[MetricDef]) -> Metrics {
    for def in catalogue {
        assert!(
            metrics.contains_key(def.name),
            "metric {} not produced",
            def.name
        );
    }
    assert_eq!(
        metrics.len(),
        catalogue.len(),
        "metrics outside the catalogue"
    );
    metrics
}

/// The latency samples of the operation `spec`'s client blocks on.
fn op_samples(spec: &Spec) -> fn(&Repeat) -> &Vec<u32> {
    if spec.op_is_commit {
        |r| &r.commit_ns
    } else {
        |r| &r.write_ns
    }
}

pub fn end_to_end(spec: &Spec, repeats: &[Repeat], setups_s: &[f64]) -> Metrics {
    let writes = |r: &Repeat| r.writes;
    let mut m = Metrics::new();
    m.insert("writes_per_s", over_repeats(repeats, writes_per_s, writes));
    m.insert(
        "cpu_us_per_write",
        over_repeats(repeats, cpu_us_per_write, writes),
    );
    m.insert(
        "wire_bytes_per_write",
        over_repeats(
            repeats,
            |r| r.wire_bytes as f64 / (r.writes.max(1) * REPLICAS as u64) as f64,
            writes,
        ),
    );
    m.insert("op_p50_us", latency(repeats, op_samples(spec), 500));
    m.insert("setup_s", Stat::of(setups_s, setups_s.len() as u64));
    checked(m, END_TO_END)
}

fn hist_mean(snapshot: &Option<Snapshot>, name: &str) -> f64 {
    snapshot
        .as_ref()
        .and_then(|s| s.histograms.get(name))
        .map_or(0.0, |h| h.sum as f64 / h.count.max(1) as f64)
}

fn gauge(snapshot: &Option<Snapshot>, name: &str) -> f64 {
    snapshot
        .as_ref()
        .and_then(|s| s.gauges.get(name))
        .map_or(0.0, |&v| v as f64)
}

fn counter(snapshot: &Option<Snapshot>, name: &str) -> f64 {
    snapshot
        .as_ref()
        .and_then(|s| s.counters.get(name))
        .map_or(0.0, |&v| v as f64)
}

/// Assembles the per-layer ledger of one workload from the layer
/// replay, the repeats run with the program's hooks off (`untraced`)
/// and the repeats run with them on (`traced`).
pub fn per_layer(
    spec: &Spec,
    replay: &BTreeMap<&'static str, f64>,
    generator_ns_per_op: f64,
    untraced: &[Repeat],
    traced: &[Repeat],
) -> Metrics {
    let engine = spec.path != Path::Cluster;
    let writes = |r: &Repeat| r.writes;
    let mut m = Metrics::new();
    for (&name, &value) in replay {
        m.insert(name, Stat::of(&[value], 1));
    }

    // Timed from outside, hooks off.
    let only = |on: bool, value: f64| if on { value } else { 0.0 };
    m.insert(
        "driver.untraced_writes_per_s",
        over_repeats(untraced, writes_per_s, writes),
    );
    m.insert(
        "driver.traced_writes_per_s",
        over_repeats(traced, writes_per_s, writes),
    );
    m.insert(
        "driver.cpu_us_per_write",
        over_repeats(untraced, cpu_us_per_write, writes),
    );
    m.insert("driver.op_p99_us", latency(untraced, op_samples(spec), 990));
    m.insert(
        "driver.write_p50_us",
        latency(untraced, |r| &r.write_ns, 500),
    );
    m.insert(
        "driver.write_p99_us",
        latency(untraced, |r| &r.write_ns, 990),
    );
    m.insert(
        "driver.commit_p50_us",
        latency(untraced, |r| &r.commit_ns, 500),
    );
    m.insert(
        "driver.commit_p99_us",
        latency(untraced, |r| &r.commit_ns, 990),
    );
    m.insert("driver.read_p50_us", latency(untraced, |r| &r.read_ns, 500));
    m.insert("driver.read_p99_us", latency(untraced, |r| &r.read_ns, 990));
    m.insert(
        "driver.generator_ns_per_op",
        Stat::of(&[generator_ns_per_op], 1),
    );
    let all = || untraced.iter().chain(traced);
    m.insert(
        "driver.stalls_over_10ms",
        Stat::of(&[all().map(|r| r.stalls_over_10ms).sum::<u64>() as f64], 1),
    );
    m.insert(
        "driver.failed_ops",
        Stat::of(&[all().map(|r| r.failed).sum::<u64>() as f64], 1),
    );
    m.insert(
        "driver.steal_pct",
        over_repeats(untraced, |r| r.steal_share * 100.0, |_| 1),
    );
    let wps = m["driver.untraced_writes_per_s"];
    m.insert(
        "driver.repeat_spread_pct",
        Stat::of(
            &[(wps.q3 - wps.q1) / wps.median * 100.0],
            wps.repeats as u64,
        ),
    );
    let per_link = |r: &Repeat, n: u64| n as f64 / (r.writes.max(1) * REPLICAS as u64) as f64;
    m.insert(
        "net.frames_per_write",
        over_repeats(untraced, |r| per_link(r, r.frames), writes),
    );
    m.insert(
        "net.packets_per_write",
        over_repeats(untraced, |r| per_link(r, r.packets), writes),
    );
    m.insert(
        "core.write_block_ns",
        over_repeats(
            untraced,
            |r| only(engine, quantile(&r.write_ns, 500)),
            |r| r.write_ns.len() as u64,
        ),
    );
    m.insert(
        "core.flush_ns",
        over_repeats(untraced, |r| only(engine, r.flush_ns as f64), |_| 1),
    );
    let allocs = |r: &Repeat| r.allocs as f64 / r.writes.max(1) as f64;
    m.insert(
        "core.allocs_per_write",
        over_repeats(untraced, |r| only(engine, allocs(r)), writes),
    );
    m.insert(
        "cluster.allocs_per_write",
        over_repeats(untraced, |r| only(!engine, allocs(r)), writes),
    );
    let engine_stat =
        |r: &Repeat, f: &dyn Fn(&prins_core::EngineStats, &[prins_core::LaneStats]) -> f64| {
            r.engine
                .as_ref()
                .map_or(0.0, |(stats, lanes)| f(stats, lanes))
        };
    m.insert(
        "core.queue_depth_hwm",
        over_repeats(
            untraced,
            |r| engine_stat(r, &|s, _| s.queue_depth_hwm as f64),
            writes,
        ),
    );
    m.insert(
        "core.coalesced_writes",
        over_repeats(
            untraced,
            |r| engine_stat(r, &|s, _| s.coalesced_writes as f64),
            writes,
        ),
    );
    m.insert(
        "core.batch_fill",
        over_repeats(
            untraced,
            |r| {
                engine_stat(r, &|_, lanes| {
                    let acked: u64 = lanes.iter().map(|l| l.acked_writes).sum();
                    let sends: u64 = lanes.iter().map(|l| l.sends).sum();
                    acked as f64 / sends.max(1) as f64
                })
            },
            writes,
        ),
    );
    m.insert(
        "cluster.read_offload_share",
        over_repeats(
            untraced,
            |r| r.reads_offloaded as f64 / r.reads.max(1) as f64,
            |r| r.reads,
        ),
    );

    // Read from the program's own hooks, on.
    for (name, histogram) in [
        ("core.capture_ns", "stage_capture_nanos"),
        ("core.local_write_ns", "stage_local_write_nanos"),
        ("core.admission_wait_ns", "stage_admission_wait_nanos"),
        ("core.encode_ns", "stage_encode_nanos"),
        ("core.reorder_hold_ns", "stage_reorder_hold_nanos"),
        ("core.lane_queue_ns", "stage_lane_queue_nanos"),
        ("core.send_ns", "stage_send_nanos"),
        ("core.ack_rtt_ns", "stage_ack_rtt_nanos"),
        ("cluster.ack_rtt_ns", "cluster_ack_rtt_nanos"),
    ] {
        m.insert(
            name,
            over_repeats(traced, |r| hist_mean(&r.snapshot, histogram), writes),
        );
    }
    for (name, source) in [
        ("buf.pool_miss_ppm", "pool_miss_ppm"),
        ("buf.pool_in_use_hwm", "pool_in_use_hwm"),
        (
            "core.bytes_copied_per_write",
            "engine_bytes_copied_per_write",
        ),
    ] {
        m.insert(
            name,
            over_repeats(traced, |r| gauge(&r.snapshot, source), writes),
        );
    }
    m.insert(
        "core.retransmits",
        over_repeats(traced, |r| counter(&r.snapshot, "retransmits"), writes),
    );
    m.insert(
        "cluster.read_rejected_stale",
        over_repeats(
            traced,
            |r| counter(&r.snapshot, "read_rejected_stale"),
            |r| r.reads,
        ),
    );

    // Derived: does the sum of the priced calls explain the CPU a write
    // costs? The primary's side once; seal, send and the replica's
    // apply once per replica. The cluster path reads the old image
    // itself and then writes through the TrapDevice, which reads and
    // writes again. What is left is hand-offs, wake-ups, the allocator.
    let v = |name: &str| m[name].median;
    let (cpu_us, ack_rtt_ns) = (v("driver.cpu_us_per_write"), v("cluster.ack_rtt_ns"));
    let (untraced_wps, traced_wps) = (
        v("driver.untraced_writes_per_s"),
        v("driver.traced_writes_per_s"),
    );
    let replicas = REPLICAS as f64;
    let send_per_write = v("net.send_ns") * v("net.replay_frames_per_write");
    let primary_ns = v("repl.encode_write_ns")
        + if engine {
            v("block.capture_read_ns") + v("block.local_write_ns") + 3.0 * v("buf.get_ns")
        } else {
            v("block.capture_read_ns") + v("trap.append_ns")
        };
    let seal_and_send = v("repl.seal_ns") + send_per_write;
    let layer_sum_us = (primary_ns + replicas * (seal_and_send + v("repl.apply_ns"))) / 1e3;
    // A cluster write's own time: its latency minus the calls it makes
    // and minus the acknowledgements it waits for, one replica after
    // the other.
    let callee_ns = primary_ns + replicas * seal_and_send;
    let write_mean_ns = over_repeats(
        traced,
        |r| {
            r.write_ns.iter().map(|&ns| f64::from(ns)).sum::<f64>() / r.write_ns.len().max(1) as f64
        },
        writes,
    )
    .median;
    m.insert("recon.layer_sum_us", Stat::of(&[layer_sum_us], 1));
    m.insert(
        "recon.unexplained_pct",
        Stat::of(&[(1.0 - layer_sum_us / cpu_us) * 100.0], 1),
    );
    m.insert(
        "cluster.write_self_ns",
        Stat::of(
            &[only(
                !engine,
                write_mean_ns - callee_ns - replicas * ack_rtt_ns,
            )],
            1,
        ),
    );
    m.insert(
        "obs.trace_overhead_pct",
        Stat::of(&[(untraced_wps - traced_wps) / untraced_wps * 100.0], 1),
    );
    checked(m, PER_LAYER)
}

/// The result line the benchmark contract asks for.
pub fn contract_line(
    metrics: &Metrics,
    catalogue: &[MetricDef],
    attempted: u64,
    failed: u64,
) -> Json {
    Json::obj([
        ("correct", Json::Bool(failed == 0)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        (
            "metrics",
            Json::obj(catalogue.iter().map(|d| {
                (
                    d.name,
                    Json::obj([
                        ("value", Json::Num(metrics[d.name].median)),
                        ("unit", Json::str(d.unit)),
                    ]),
                )
            })),
        ),
    ])
}

/// One workload's section of the ledger document.
pub fn section(metrics: &Metrics, catalogue: &[MetricDef]) -> Json {
    Json::obj(
        catalogue
            .iter()
            .map(|d| (d.name, metrics[d.name].to_json(d))),
    )
}
