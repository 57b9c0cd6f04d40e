#!/usr/bin/env sh
# Where one run of the benchmark's contract command spends CPU and context
# switches, per thread group.
#
#   scripts/threads.sh <dir> <workload> <seconds>
#
# <dir> is a checkout whose benchmark/ package is already built
# (`cargo build --release --offline --manifest-path benchmark/Cargo.toml`).
# The script runs `--workload <workload> --seed $SEED --seconds <seconds>
# --trace 0` there once (SEED defaults to 1) and samples every thread's
# /proc/<pid>/task/<tid>/{stat,status} every 50 ms. When the run ends it
# prints, per thread group, the user and system CPU seconds and the voluntary
# and involuntary context switches of the group's threads at their last
# sample, the switches and the CPU time ((user + sys) / operations, in µs)
# also per operation the run attempted — so work that moves from one group
# to another shows as moved, not gone. A group is a thread name with its
# trailing digits removed (`prins-encode-`, `prins-sender-`, ...); the
# process's first thread is `main`, and threads spawned without a name carry
# the binary's name (in the benchmark those are the replica servers). A
# thread that exits loses at most its last 50 ms. The sampling itself costs
# one awk process per tick.
set -eu
[ $# -eq 3 ] || { echo "usage: $0 <dir> <workload> <seconds>" >&2; exit 2; }
dir=$1 workload=$2 seconds=$3
samples=$(mktemp) result=$(mktemp)
trap 'rm -f "$samples" "$result"' EXIT

(cd "$dir" && exec cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- \
    --workload "$workload" --seed "${SEED:-1}" --seconds "$seconds" --trace 0 >"$result" 2>/dev/null) &
pid=$!
# On Unix `cargo run` replaces itself with the benchmark binary: wait for that.
while [ "$(cat "/proc/$pid/comm" 2>/dev/null || echo gone)" = cargo ]; do sleep 0.01; done
[ -d "/proc/$pid/task" ] || { echo "the benchmark exited before it could be sampled" >&2; exit 1; }

# One line per thread and tick: tid, name, utime, stime (clock ticks), voluntary
# and involuntary switches.
while [ -d "/proc/$pid/task" ]; do
    awk -v pid="$pid" '
        FNR == 1 && FILENAME ~ /\/stat$/ {
            tid = $1
            # The name sits in parentheses; the fields count from the last ")".
            name[tid] = substr($0, index($0, "(") + 1, length($0))
            name[tid] = substr(name[tid], 1, index(name[tid], ")") - 1)
            split(substr($0, index($0, ") ") + 2), f, " ")
            ut[tid] = f[12]; st[tid] = f[13]
        }
        FILENAME ~ /\/status$/ {
            split(FILENAME, p, "/"); tid = p[5]
            if ($1 == "voluntary_ctxt_switches:") vol[tid] = $2
            if ($1 == "nonvoluntary_ctxt_switches:") inv[tid] = $2
        }
        END { for (t in ut) if (t in vol) print t, (t == pid ? "main" : name[t]), ut[t], st[t], vol[t], inv[t] }
    ' "/proc/$pid/task/"*/stat "/proc/$pid/task/"*/status 2>/dev/null >>"$samples" || true
    sleep 0.05
done
wait "$pid" || { echo "the benchmark run failed" >&2; exit 1; }

hz=$(getconf CLK_TCK)
ops=$(tail -n 1 "$result" | sed -n 's/.*"attempted": \([0-9]*\).*/\1/p')
echo "# $workload, ${seconds} s, seed ${SEED:-1}, $ops operations: per thread group, at each thread's last sample"
awk -v hz="$hz" -v ops="$ops" '
    { last[$1] = $0 }
    END {
        for (t in last) {
            split(last[t], f, " ")
            g = f[2]; sub(/[0-9]+$/, "", g)
            n[g]++; u[g] += f[3]; s[g] += f[4]; v[g] += f[5]; i[g] += f[6]
            n["total"]++; u["total"] += f[3]; s["total"] += f[4]; v["total"] += f[5]; i["total"] += f[6]
        }
        printf "%-18s %7s %9s %9s %12s %12s %8s %8s %11s\n", "group", "threads", "user_s", "sys_s", "voluntary", "involuntary", "vol/op", "invol/op", "cpu_us/op"
        for (g in n) if (g != "total") row(g)
        row("total")
    }
    function row(g) {
        printf "%-18s %7d %9.2f %9.2f %12d %12d %8.2f %8.2f %11.2f\n", g, n[g], u[g] / hz, s[g] / hz, v[g], i[g], (ops > 0 ? v[g] / ops : 0), (ops > 0 ? i[g] / ops : 0), (ops > 0 ? (u[g] + s[g]) / hz * 1e6 / ops : 0)
    }' "$samples"
