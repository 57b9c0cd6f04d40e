#!/usr/bin/env sh
# Alternating parent/change pairs of the benchmark's contract command — the
# protocol a PR that claims (or risks) an end-to-end number reports
# (choosing-metrics: >= 10 pairs, the change better in >= 9/10 and the medians
# apart by more than the parent's own inter-quartile distance).
#
#   scripts/pairs.sh <parent-dir> <change-dir> <workload> <pairs>
#
# Both directories are checkouts whose benchmark/ package is already built
# (`cargo build --release --offline --manifest-path benchmark/Cargo.toml`), so
# the `cargo run` below only starts the binary. Pair i runs seed SEED+i on both
# sides (SEED defaults to the clock, so every invocation uses seeds nobody
# developed against; the seeds are printed) — even pairs parent first, odd
# pairs change first. Every run is printed as it finishes, then per metric each
# side's median and quartiles, the pairs the change was better in (ties count
# for neither side), and the verdict in two columns: whether the change won at
# least 9/10 of the pairs, and whether its median is better than the parent's
# by more than the parent's inter-quartile distance (the gap, positive when the
# change is better, and that distance are printed beside it). A gain claim
# needs "yes" in both.
#
# TRACE=1 runs the traced contract command (`--trace 1`) instead, whose result
# line carries the per-layer rows; METRICS names the rows to report (by
# default the end-to-end five, or under TRACE=1 driver.write_p99_us
# buf.pool_miss_ppm core.capture_ns). Whether higher is better is read from
# each row's "better" in BENCHMARK.json.
#
#   TRACE=1 METRICS="driver.write_p99_us driver.commit_p50_us" scripts/pairs.sh ...
set -eu
[ $# -eq 4 ] || { echo "usage: $0 <parent-dir> <change-dir> <workload> <pairs>" >&2; exit 2; }
parent=$1 change=$2 workload=$3 pairs=$4
root=$(cd "$(dirname "$0")/.." && pwd)
# `run_seconds` of BENCHMARK.json; the command is its `command` plus the
# per-run arguments the driver appends.
seconds=$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' "$root/BENCHMARK.json")
seed0=${SEED:-$(date +%s)}
trace=${TRACE:-0}
if [ "$trace" = 1 ]; then
    metrics=${METRICS:-"driver.write_p99_us buf.pool_miss_ppm core.capture_ns"}
else
    metrics=${METRICS:-"writes_per_s cpu_us_per_write wire_bytes_per_write op_p50_us setup_s"}
fi
runs=$(mktemp)
trap 'rm -f "$runs"' EXIT

contract() { # <dir> <seed>  -> the result line
    (cd "$1" && cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
        --workload "$workload" --seed "$2" --seconds "$seconds" --trace "$trace" 2>/dev/null | tail -n 1)
}
field() { printf '%s\n' "$1" | sed -n "s/.*\"$2\": {\"unit\": \"[^\"]*\", \"value\": \([-+.eE0-9]*\)}.*/\1/p"; }
# "higher" or "lower": the row's direction in BENCHMARK.json.
better() { sed -n "s/.*\"name\": \"$1\", \"unit\": \"[^\"]*\", \"better\": \"\([a-z]*\)\".*/\1/p" "$root/BENCHMARK.json"; }

echo "# $workload, $pairs pairs x ${seconds} s, --trace $trace, seeds $seed0..$((seed0 + pairs - 1))"
echo "# pair side seed $metrics correct failed"
i=0
while [ "$i" -lt "$pairs" ]; do
    seed=$((seed0 + i))
    if [ $((i % 2)) -eq 0 ]; then order="parent change"; else order="change parent"; fi
    for side in $order; do
        if [ "$side" = parent ]; then dir=$parent; else dir=$change; fi
        line=$(contract "$dir" "$seed")
        row="$i $side $seed"
        for m in $metrics; do v=$(field "$line" "$m"); row="$row ${v:-nan}"; done
        correct=$(printf '%s\n' "$line" | sed -n 's/.*"correct": \([a-z]*\).*/\1/p')
        failed=$(printf '%s\n' "$line" | sed -n 's/.*"failed": \([0-9]*\).*/\1/p')
        echo "$row $correct $failed" | tee -a "$runs"
    done
    i=$((i + 1))
done

# Per metric: each side's median and quartiles (linear interpolation between
# order statistics), the pairs the change was better in (a tie counts for
# neither side), and the two halves of the verdict.
echo "# metric side median q1 q3 | change better in | >= 9/10 pairs | median gap > parent IQR"
col=4
for m in $metrics; do
    awk -v m="$m" -v col="$col" -v higher="$([ "$(better "$m")" = higher ] && echo 1 || echo 0)" '
        function sort(v, n,   i, j, t) { for (i = 2; i <= n; i++) { t = v[i]; for (j = i - 1; j >= 1 && v[j] > t; j--) v[j + 1] = v[j]; v[j + 1] = t } }
        function q(v, n, p,   h, lo) { h = (n - 1) * p + 1; lo = int(h); return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo]) }
        $2 == "parent" { p[$1] = $col; pv[++np] = $col }
        $2 == "change" { c[$1] = $col; cv[++nc] = $col }
        END {
            if (!np || !nc) exit
            sort(pv, np); sort(cv, nc)
            pm = q(pv, np, 0.5); iqr = q(pv, np, 0.75) - q(pv, np, 0.25); cm = q(cv, nc, 0.5)
            for (i in p) if (i in c) { n++; if (higher ? c[i] > p[i] : c[i] < p[i]) w++ }
            gap = higher ? cm - pm : pm - cm
            printf "%-22s %-6s %12.4f %12.4f %12.4f\n", m, "parent", pm, q(pv, np, 0.25), q(pv, np, 0.75)
            printf "%-22s %-6s %12.4f %12.4f %12.4f | %d/%d | %s | %s (%.4f vs %.4f)\n", m, "change", cm,
                q(cv, nc, 0.25), q(cv, nc, 0.75), w, n, (10 * w >= 9 * n ? "yes" : "no"),
                (gap > iqr ? "yes" : "no"), gap, iqr
        }' "$runs"
    col=$((col + 1))
done
awk '$(NF - 1) != "true" || $NF != 0 { bad++ } END { printf "# runs not correct or with failed operations: %d of %d\n", bad, NR }' "$runs"
