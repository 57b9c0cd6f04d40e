#!/usr/bin/env sh
# CI gate: formatting, lints, build, and the test suites.
#
# Offline note: the build environment has no crates.io access. Every
# external dependency (rand, proptest, criterion, crossbeam,
# parking_lot) is an offline stand-in vendored under vendor/ and wired
# into [workspace.dependencies] as a path dependency, so cargo never
# needs the registry. In an environment *with* registry access nothing
# changes — path dependencies resolve locally either way. If cargo
# still attempts network access (e.g. a stale lockfile referencing
# registry packages), run with CARGO_NET_OFFLINE=true.
set -eu
cd "$(dirname "$0")"

# --all/--workspace keep the gates covering every crate, including the
# prins-obs metrics crate and any future additions.
cargo fmt --all -- --check
# One place to audit: the library crates' only `unsafe` is the call into
# the SSE4.2 CRC32C kernel in crates/block/src/checksum.rs, and the
# conditions that block relies on can only be checked by reading if the
# keyword appears nowhere else. (-w: the `unsafe_code` lint name in
# prins-block's `#![deny(unsafe_code)]` is not the keyword.)
unsafe_in=$(grep -rlw "unsafe" crates/*/src)
if [ "$unsafe_in" != "crates/block/src/checksum.rs" ]; then
    echo "unsafe outside crates/block/src/checksum.rs:" >&2
    grep -rnw "unsafe" crates/*/src | grep -v "^crates/block/src/checksum.rs:" >&2
    exit 1
fi
# The pipeline's wake-up rule (no system call when nobody is parked)
# holds only if every wait in prins-core goes through `Signal`, so a
# bare `Condvar` may appear in crates/core/src/signal.rs alone.
condvar_in=$(grep -lw "Condvar" crates/core/src/*.rs)
if [ "$condvar_in" != "crates/core/src/signal.rs" ]; then
    echo "Condvar outside crates/core/src/signal.rs:" >&2
    grep -nw "Condvar" crates/core/src/*.rs | grep -v "^crates/core/src/signal.rs:" >&2
    exit 1
fi
# Code lines above a file's test module are what the gate below checks.
# (No gate is needed for the stranded-response rule: prins_repl::Link
# keeps its raw receive and epoch private, so the compiler holds every
# send and await to it.)
code_lines() { awk '/#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$@"; }
# A plane's probe catalogue (crates/cluster/src/probe.rs,
# crates/core/src/obs.rs) is complete only if nothing else in its crate
# records, and the engine's probe is its only store of numbers only if
# nothing else in prins-core counts. (signal.rs's atomic counts parked
# threads, not a metric.)
leaks=$(code_lines $(ls crates/cluster/src/*.rs crates/core/src/*.rs \
    | grep -v -E '/cluster/src/probe\.rs$|/core/src/(obs|signal)\.rs$') \
    | grep -E 'registry\.|sink\.|now_nanos|EventKind|TraceStage|\.(events|counter|gauge|histogram)\(|fetch_add|fetch_max' || true)
if [ -n "$leaks" ]; then
    echo "recording or counting outside crates/cluster/src/probe.rs, crates/core/src/obs.rs:" >&2
    echo "$leaks" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
cargo build --release
cargo bench --workspace --no-run     # criterion benches must keep compiling
# Cap test parallelism: the pipeline/cluster suites spawn their own
# worker and replica threads, so unbounded test threads oversubscribe
# CI boxes and turn timing-tolerant tests flaky.
RUST_TEST_THREADS=4 cargo test -q --release              # tier-1 gate (root package)
# The workspace line is also what runs prins-block's CRC32C kernel tests
# (every length x alignment x split, hardware vs portable vs bytewise)
# in release mode, where the kernel is optimized the way it ships.
RUST_TEST_THREADS=4 cargo test -q --release --workspace  # every crate, incl. vendored stubs
# benchmark/ is its own workspace (BENCHMARK.json builds it standalone),
# so neither line above compiles it: run its tests here, or an API break
# against the harness would only show up when the benchmark next runs.
cargo test -q --release --offline --manifest-path benchmark/Cargo.toml
# The paper's RAID path, executed and not only compiled: a PRINS engine
# over RAID-5 with one replica; the example asserts the array scrubs
# clean and the replica is bit-identical.
cargo run -q --release --example raid_tap
# Fault-schedule fuzzing: replay the checked-in regression seeds plus
# fresh random ones. Every seed plays on its cluster topology, then on
# a stepped engine and on an erasure-coded group (about 17 ms a seed in
# release, so this line takes a second or two). A failing seed is
# printed with its minimized schedule (replay it locally with
# `sim-replay <seed>`) and appended to the corpus so it stays covered
# on every future run.
cargo run -q --release -p prins-sim --bin sim-replay -- \
    corpus tests/sim_seeds.txt --fresh 50 --append-failures
# Observability determinism gate: the obs-dump run is a virtual-time
# simulation, so its event-count summary at a fixed --ops must be
# byte-identical on every machine. A diff here means either the
# pipeline's event instrumentation changed (regenerate the golden with
# the command below) or nondeterminism crept into the engine/sim stack
# (find it before it breaks seed replay).
cargo run -q --release -p prins-bench --bin obs-dump -- --ops 300 --summary \
    | diff tests/obs_golden.json -
# The engine pipeline's trace summary (latency, tail attribution, SLO
# burn, anomaly counts) on the traced 10x-slow-lane run, pinned the same
# way: a diff means a traced hop, its timestamp or the finalize
# arithmetic changed. (`sed -n 1p` reads to the end, so obs-dump never
# writes into a closed pipe.)
cargo run -q --release -p prins-bench --bin obs-dump -- --ops 300 --traces \
    | sed -n 1p | diff tests/engine_trace_golden.json -
# Scenario golden gates (corruption, EC rebuild, scale-out, trace,
# adaptive policy): each golden file pins the deterministic event-count
# or trace summary of the scenarios listed beside it in the GOLDENS
# table in crates/sim/src/bin/sim_replay.rs, which also says what a
# diff in each one means. After an intentional behaviour change,
# regenerate all of them with `sim-replay golden --bless` (same cargo
# invocation, run from the repo root).
cargo run -q --release -p prins-sim --bin sim-replay -- golden --check
# Scale figure wiring smoke: the selection must parse without paying
# for the measurement (the ≥2.5x read-speedup bound itself is asserted
# by prins-bench's scale test in the workspace suite above).
cargo run -q --release -p prins-bench --bin figures -- scale --no-run
# Adaptive ablation wiring smoke: the `figures adaptive` selection must
# parse (the adaptive <= best-static byte bounds are asserted by
# prins-bench's release-gated test in the workspace suite above).
cargo run -q --release -p prins-bench --bin figures -- adaptive --no-run
# Counted lines per crate (and per file for the crates named): the
# number simplicity PRs quote before/after. Printed, never gated on.
./scripts/loc.sh core cluster sim parity repl trap bench
