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
code_lines() { awk '/^#\[cfg\(test\)\]/ { nextfile } !/^[[:space:]]*\/\// { print FILENAME ":" FNR ": " $0 }' "$@"; }
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
# A cluster write is planned once: the plan whose parity its TRAP log
# keeps is the plan its frame is encoded from (`write_planned`, then
# `encode_planned`), so no second per-write encode path may creep back
# into prins-cluster.
encoders=$(code_lines crates/cluster/src/*.rs \
    | grep -wE 'Replicator|ReplicationMode|encode_write_into' || true)
if [ -n "$encoders" ]; then
    echo "a second per-write encode path in crates/cluster/src:" >&2
    echo "$encoders" >&2
    exit 1
fi
# The engine encodes a write in one place: the encode pool, a flusher
# and a writer encoding its own write all call `encode_and_release`, so
# exactly one code line in prins-core may call the encoder.
encoders=$(code_lines crates/core/src/*.rs | grep -w 'encode_write_into' || true)
if [ "$(printf '%s' "$encoders" | grep -c .)" -ne 1 ]; then
    echo "not exactly one encode_write_into call in crates/core/src:" >&2
    echo "$encoders" >&2
    exit 1
fi
# An engine's knobs are fixed when it starts: the pipeline's shared
# state lives under its mutexes, and `batch_frames` is a plain field
# `Pipeline::start` sets from the builder's config. An atomic in the
# pipeline, builder or engine is a knob someone can flip while writes
# are queued, and a flag once flipped that way (the since-deleted
# coalescing switch) let a write fold past one queued ahead of it and
# diverge a replica.
atomics=$(code_lines crates/core/src/pipeline.rs crates/core/src/builder.rs \
    crates/core/src/engine.rs | grep -E 'std::sync::atomic|\bAtomic[A-Za-z0-9]*' || true)
if [ -n "$atomics" ]; then
    echo "an atomic in crates/core/src/{pipeline,builder,engine}.rs:" >&2
    echo "$atomics" >&2
    exit 1
fi
# The engine ships every write it accepts; it never coalesces.
# `EngineBuilder::coalesce` (which panics on `true`) and the always-0
# `EngineStats::coalesced_writes` are kept only because the benchmark/
# harness, a separate workspace, still calls and reads them. benchmark/
# is that shim's only caller, so nothing here may call `.coalesce(`
# outside a comment, and the next change to benchmark/ can delete it.
shim_callers=$(find crates tests examples src -name '*.rs' -exec grep -Hn -F '.coalesce(' {} + \
    | grep -vE '^[^:]+:[0-9]+:[[:space:]]*//' || true)
if [ -n "$shim_callers" ]; then
    echo "a call to the EngineBuilder::coalesce shim outside benchmark/:" >&2
    echo "$shim_callers" >&2
    exit 1
fi
# `scripts/loc.sh` and `code_lines` above stop reading a file at a line
# that starts with `#[cfg(test)]`, so that attribute may appear once
# per file, alone at the start of the line directly above the file's
# `mod tests`, and that module is the file's last item. A test-only
# helper under its own `#[cfg(test)]`, or a test module with code after
# it, would hide code from the line count and from the gates above.
misplaced=$(find crates/*/src -name '*.rs' -exec awk '
    FNR == 1 { state = 0 }
    state == 3 && NF { print FILENAME ":" FNR ": code after the test module"; state = 4 }
    state == 2 && /^}/ { state = 3 }
    state == 1 {
        if ($0 ~ /^(pub\(crate\) )?mod tests \{$/) state = 2
        else { print FILENAME ":" FNR - 1 ": #[cfg(test)] not directly above mod tests"; state = 4 }
    }
    /#\[cfg\(test\)\]/ && !/^[[:space:]]*\/\// {
        if (state == 0 && /^#\[cfg\(test\)\]$/) state = 1
        else print FILENAME ":" FNR ": #[cfg(test)] other than the one above the last item, mod tests"
    }' {} +)
if [ -n "$misplaced" ]; then
    echo "$misplaced" >&2
    exit 1
fi
# Items nothing uses are deleted, not silenced: no `allow`/`expect` of
# `dead_code` or `unused…` lints in crates/*/src, except the arch-gated
# parameter of the SSE4.2 CRC32C kernel (unused off x86_64).
silenced=$(grep -rnE '(allow|expect)\([^)]*\b(dead_code|unused)' crates/*/src \
    | grep -vE '^crates/block/src/checksum\.rs:[0-9]+:#\[cfg_attr\(not\(target_arch = "x86_64"\), allow\(unused_variables\)\)\]$' || true)
if [ -n "$silenced" ]; then
    echo "dead-code or unused lint silenced in crates/*/src:" >&2
    echo "$silenced" >&2
    exit 1
fi
# `pub` only where another crate looks: every library root warns on a
# `pub` item its crate does not export, and clippy -D warnings below
# turns that into a failure — a new crate cannot opt out.
missing_lint=$(grep -L '^#!\[warn(unreachable_pub)\]$' crates/*/src/lib.rs || true)
if [ -n "$missing_lint" ]; then
    echo "library roots without #![warn(unreachable_pub)]:" >&2
    echo "$missing_lint" >&2
    exit 1
fi
cargo clippy --workspace --all-targets -- -D warnings
# Narrowing an item to pub(crate) breaks every public doc link to it, so
# rustdoc's broken- and private-link warnings fail the build too.
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --lib
cargo build --release
cargo bench --workspace --no-run     # criterion benches must keep compiling
# Cap test parallelism: the engine pipeline's tests and the root suites
# spawn their own worker and replica threads (the cluster harnesses run
# in virtual time on SimNet and spawn none), so unbounded test threads
# oversubscribe CI boxes and turn timing-tolerant tests flaky.
RUST_TEST_THREADS=4 cargo test -q --release              # tier-1 gate (root package)
# The workspace line is also what runs prins-block's CRC32C kernel tests
# (every length x alignment x split, hardware vs portable vs bytewise)
# in release mode, where the kernel is optimized the way it ships.
RUST_TEST_THREADS=4 cargo test -q --release --workspace  # every crate, incl. vendored stubs
# benchmark/ is its own workspace (BENCHMARK.json builds it standalone),
# so neither line above compiles it: run its tests here, or an API break
# against the harness would only show up when the benchmark next runs.
# --locked fails the line if a workspace change would make cargo rewrite
# benchmark/Cargo.lock, which only a change to the benchmark may touch.
cargo test -q --release --offline --locked --manifest-path benchmark/Cargo.toml
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
# The two byte-counting experiments, both on simulated links — resync
# catch-up traffic and the EC group's repair bandwidth — pinned the same
# way: a diff means a resync plan, a strip update or what the wire
# meters count changed (regenerate the golden with the command below).
cargo run -q --release -p prins-bench --bin figures -- resync ec --ops 200 \
    | diff tests/figures_golden.txt -
# The paper's own figures — traffic (Figs 4-7), the queueing model fed
# by measured traffic (Figs 8-10), the adaptive-policy ablation and the
# TPC-C write rate — at smoke scale, pinned the same way: a diff means a
# replicator's bytes, the workloads' write streams or the queueing
# arithmetic changed.
cargo run -q --release -p prins-bench --bin figures -- --smoke --ops 200 \
    fig4 fig5 fig6 fig7 fig8 fig9 fig10 adaptive writerate | diff tests/paper_figures_golden.txt -
# Scenario golden gates (corruption, EC rebuild, scale-out, trace,
# adaptive policy, faults and resync): each golden file pins the deterministic event-count
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
./scripts/loc.sh core cluster sim parity repl trap bench net policy block workloads
