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
# Fault-schedule fuzzing: replay the checked-in regression seeds plus a
# few fresh random ones. A failing seed is printed with its minimized
# schedule (replay it locally with `sim-replay <seed>`) and appended to
# the corpus so it stays covered on every future run.
cargo run -q --release -p prins-sim --bin sim-replay -- \
    corpus tests/sim_seeds.txt --fresh 5 --append-failures
# Observability determinism gate: the obs-dump run is a virtual-time
# simulation, so its event-count summary at a fixed --ops must be
# byte-identical on every machine. A diff here means either the
# pipeline's event instrumentation changed (regenerate the golden with
# the command below) or nondeterminism crept into the engine/sim stack
# (find it before it breaks seed replay).
cargo run -q --release -p prins-bench --bin obs-dump -- --ops 300 --summary \
    | diff tests/obs_golden.json -
# Integrity determinism gate: the corruption scenarios inject wire and
# replica-media bit flips; their event-count summaries must replay
# byte-identically. A diff means the detect/retransmit/scrub behaviour
# changed — regenerate with the same command if that was intentional.
cargo run -q --release -p prins-sim --bin sim-replay -- scenario 'corruption_*' --events \
    | diff tests/corruption_golden.txt -
# Erasure-coding determinism gate: the ec_rebuild_* scenarios kill one
# and two strip-holding nodes mid-workload, rebuild them from k
# survivors, and verify every strip re-encodes the logical image. Their
# event-count summaries must replay byte-identically — regenerate with
# the same command if the EC write/rebuild paths changed intentionally.
cargo run -q --release -p prins-sim --bin sim-replay -- scenario 'ec_rebuild_*' --events \
    | diff tests/ec_golden.txt -
# Scale-out determinism gate: live migration under a 10x-slow link with
# a node kill mid-copy, and offloaded reads racing a replica rejoin.
# Their event-count summaries must replay byte-identically — regenerate
# with the same two commands if placement/migration/read-offload
# behaviour changed intentionally.
{
    cargo run -q --release -p prins-sim --bin sim-replay -- scenario migrate_under_faults --events
    cargo run -q --release -p prins-sim --bin sim-replay -- scenario read_offload_rejoin --events
} | diff tests/scale_out_golden.txt -
# Trace determinism gate: the migrate_under_faults flight-recorder
# summary (per-stage tail attribution, SLO burn, sampling counts) must
# replay byte-identically — trace IDs and sampling are derived from
# deterministic counters, never entropy. A diff means the traced hop
# set changed (regenerate with the same command if intentional) or a
# nondeterministic hop crept into the write path.
cargo run -q --release -p prins-sim --bin sim-replay -- scenario migrate_under_faults --traces \
    | diff tests/trace_golden.json -
# Adaptive-policy determinism gate: the policy engine drives the
# foreground pipeline through a small-delta -> churn phase change with
# inline assertions on phase commits, decision mix, and counterfactual
# regret; its event-count summary must replay byte-identically.
# Regenerate with the same command if the decision or phase logic
# changed intentionally.
cargo run -q --release -p prins-sim --bin sim-replay -- scenario adaptive_phase_shift --events \
    | diff tests/adaptive_golden.txt -
# Scale figure wiring smoke: the selection must parse without paying
# for the measurement (the ≥2.5x read-speedup bound itself is asserted
# by prins-bench's scale test in the workspace suite above).
cargo run -q --release -p prins-bench --bin figures -- scale --no-run
# Adaptive ablation wiring smoke: the `figures adaptive` selection must
# parse (the adaptive <= best-static byte bounds are asserted by
# prins-bench's release-gated test in the workspace suite above).
cargo run -q --release -p prins-bench --bin figures -- adaptive --no-run
